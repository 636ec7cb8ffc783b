package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
)

// handleFeedback serves POST /v1/feedback. Mounted only when Config.Feedback
// is set. Contract mirrors the v1 rerank surface: draining answers 503,
// malformed input 400, a full ingest queue 429 + Retry-After — all in the
// unified error envelope — and an accepted event 202. Acceptance means
// queued in memory for the log appender: not yet on disk, and not yet applied
// to the click model.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.met.Feedback.With("shed").Inc()
		w.Header().Set(ShedReasonHeader, engine.ShedDraining)
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(s.DrainWindow()/time.Second))))
		s.writeError(w, http.StatusServiceUnavailable, errCodeDraining,
			"draining, replica going away", max(1, int(s.DrainWindow()/time.Second)))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var ev engine.FeedbackEvent
	if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
		s.met.Feedback.With("bad_input").Inc()
		s.writeError(w, http.StatusBadRequest, errCodeBadInput, "bad request: "+err.Error(), 0)
		return
	}
	if err := ev.Validate(); err != nil {
		s.met.Feedback.With("bad_input").Inc()
		s.writeError(w, http.StatusBadRequest, errCodeBadInput, err.Error(), 0)
		return
	}
	if err := s.cfg.Feedback.Submit(ev); err != nil {
		if errors.Is(err, engine.ErrFeedbackBusy) {
			s.met.Feedback.With("shed").Inc()
			retry := s.RetryAfterS()
			w.Header().Set(ShedReasonHeader, engine.ShedBackpressure)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.writeError(w, http.StatusTooManyRequests, errCodeOverloaded,
				"feedback ingestion overloaded, retry later", retry)
			return
		}
		s.met.Feedback.With("error").Inc()
		s.writeError(w, http.StatusInternalServerError, errCodeInternal, "feedback ingestion failed", 0)
		return
	}
	s.met.FeedbackOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write([]byte("{\"accepted\":true}\n"))
}
