package serve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
)

// ErrUnknownVersion marks a lifecycle operation naming a version the
// registry cannot find (on disk or in memory). Admin handlers map it to 404;
// lifecycle implementations wrap it so the distinction survives the
// serve↔registry package boundary.
var ErrUnknownVersion = errors.New("unknown model version")

// ErrLifecycleConflict marks a lifecycle operation that is invalid in the
// current state (promoting when no candidate is staged, rolling back with no
// history). Admin handlers map it to 409.
var ErrLifecycleConflict = errors.New("lifecycle conflict")

// VersionStatus is one row of GET /admin/models: a version on disk or in
// memory and its place in the lifecycle.
type VersionStatus struct {
	Version string `json:"version"`
	// State is "active", "candidate", "previous" (the rollback target) or
	// "available" (on disk, not loaded).
	State   string `json:"state"`
	Dataset string `json:"dataset,omitempty"`
	// Requests and Degraded are the version's served-traffic counters since
	// it was loaded (zero for available versions).
	Requests int64 `json:"requests"`
	Degraded int64 `json:"degraded"`
}

// Admin is the model lifecycle control plane the server exposes under
// /admin/models when Config.Admin is set. The registry implements it; the
// server only routes, guards and serializes — policy lives behind the
// interface.
type Admin interface {
	// Versions lists every version on disk and in memory with its state.
	Versions() ([]VersionStatus, error)
	// Load reads a version from disk, warm-up validates it and stages it as
	// the canary candidate (or activates it when nothing is active yet).
	Load(version string) error
	// Promote makes the named candidate the active model.
	Promote(version string) error
	// Rollback aborts the candidate canary, or — with no candidate staged —
	// reverts the active model to the previous one. It returns a
	// human-readable description of what was rolled back.
	Rollback() (string, error)
}

// adminAllowed gates the lifecycle endpoints. With Config.AdminToken set the
// caller must present it as a bearer token (compared in constant time);
// without a token only loopback peers are allowed — an internet-facing
// listener must never expose model swapping unauthenticated.
func (s *Server) adminAllowed(r *http.Request) bool {
	if tok := s.cfg.AdminToken; tok != "" {
		auth := r.Header.Get("Authorization")
		return subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+tok)) == 1
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return false
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func (s *Server) adminGuard(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.adminAllowed(r) {
			s.writeError(w, http.StatusForbidden, ErrCodeForbidden,
				"admin endpoints require the admin token or a loopback peer", 0)
			return
		}
		next(w, r)
	}
}

// adminError maps lifecycle errors onto the envelope: unknown versions are
// 404, invalid-state operations 409, everything else (warm-up failures,
// corrupt artifacts) 422 — the request was well-formed but the artifact or
// state cannot be processed.
func (s *Server) adminError(w http.ResponseWriter, err error) {
	status, code := http.StatusUnprocessableEntity, ErrCodeUnprocessable
	switch {
	case errors.Is(err, ErrUnknownVersion):
		status, code = http.StatusNotFound, ErrCodeUnknownVersion
	case errors.Is(err, ErrLifecycleConflict):
		status, code = http.StatusConflict, ErrCodeConflict
	}
	s.writeError(w, status, code, err.Error(), 0)
}

type adminVersionRequest struct {
	Version string `json:"version"`
}

func (s *Server) decodeAdminVersion(w http.ResponseWriter, r *http.Request) (string, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req adminVersionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrCodeBadInput, "bad request: "+err.Error(), 0)
		return "", false
	}
	if req.Version == "" {
		s.writeError(w, http.StatusBadRequest, ErrCodeBadInput, `bad request: missing "version"`, 0)
		return "", false
	}
	return req.Version, true
}

func (s *Server) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	vs, err := s.cfg.Admin.Versions()
	if err != nil {
		s.adminError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"versions": vs})
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	v, ok := s.decodeAdminVersion(w, r)
	if !ok {
		return
	}
	if err := s.cfg.Admin.Load(v); err != nil {
		s.adminError(w, err)
		return
	}
	s.Log("serve: admin loaded model version %s", v)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"loaded": v})
}

func (s *Server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	v, ok := s.decodeAdminVersion(w, r)
	if !ok {
		return
	}
	if err := s.cfg.Admin.Promote(v); err != nil {
		s.adminError(w, err)
		return
	}
	s.Log("serve: admin promoted model version %s", v)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"promoted": v})
}

func (s *Server) handleAdminRollback(w http.ResponseWriter, _ *http.Request) {
	desc, err := s.cfg.Admin.Rollback()
	if err != nil {
		s.adminError(w, err)
		return
	}
	s.Log("serve: admin rollback: %s", desc)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"rolled_back": desc})
}

// mountAdmin registers the lifecycle endpoints. Separated from Handler so
// the route list reads as the control-plane surface in one place.
func (s *Server) mountAdmin(mux *http.ServeMux) {
	mux.HandleFunc("GET /admin/models", s.adminGuard(s.handleAdminList))
	mux.HandleFunc("POST /admin/models/load", s.adminGuard(s.handleAdminLoad))
	mux.HandleFunc("POST /admin/models/promote", s.adminGuard(s.handleAdminPromote))
	mux.HandleFunc("POST /admin/models/rollback", s.adminGuard(s.handleAdminRollback))
}

// String formats a status row for logs.
func (v VersionStatus) String() string {
	return fmt.Sprintf("%s(%s)", v.Version, v.State)
}
