package serve

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
)

// The admin wire format: the model lifecycle (engine.Lifecycle) under
// /admin/models. The server side mounts it over Config.Admin; AdminClient
// speaks it from another process. Both use the paths and bodies below.
const (
	adminListPath     = "/admin/models"
	adminLoadPath     = "/admin/models/load"
	adminPromotePath  = "/admin/models/promote"
	adminRollbackPath = "/admin/models/rollback"
)

// adminVersionRequest is the body of POST load and promote.
type adminVersionRequest struct {
	Version string `json:"version"`
}

// adminVersionsResponse is the body of GET /admin/models.
type adminVersionsResponse struct {
	Versions []engine.VersionStatus `json:"versions"`
}

// adminRollbackResponse is the body of POST /admin/models/rollback.
type adminRollbackResponse struct {
	RolledBack string `json:"rolled_back"`
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
			s.writeError(w, http.StatusForbidden, errCodeForbidden,
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
	status, code := http.StatusUnprocessableEntity, errCodeUnprocessable
	switch {
	case errors.Is(err, engine.ErrUnknownVersion):
		status, code = http.StatusNotFound, errCodeUnknownVersion
	case errors.Is(err, engine.ErrLifecycleConflict):
		status, code = http.StatusConflict, errCodeConflict
	}
	s.writeError(w, status, code, err.Error(), 0)
}

func (s *Server) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	vs, err := s.cfg.Admin.Versions()
	if err != nil {
		s.adminError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(adminVersionsResponse{Versions: vs})
}

func (s *Server) decodeAdminVersion(w http.ResponseWriter, r *http.Request) (string, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req adminVersionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, errCodeBadInput, "bad request: "+err.Error(), 0)
		return "", false
	}
	if req.Version == "" {
		s.writeError(w, http.StatusBadRequest, errCodeBadInput, `bad request: missing "version"`, 0)
		return "", false
	}
	return req.Version, true
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
	_ = json.NewEncoder(w).Encode(adminRollbackResponse{RolledBack: desc})
}

// mountAdmin registers the lifecycle endpoints. Separated from Handler so
// the route list reads as the control-plane surface in one place.
func (s *Server) mountAdmin(mux *http.ServeMux) {
	mux.HandleFunc("GET "+adminListPath, s.adminGuard(s.handleAdminList))
	mux.HandleFunc("POST "+adminLoadPath, s.adminGuard(s.handleAdminLoad))
	mux.HandleFunc("POST "+adminPromotePath, s.adminGuard(s.handleAdminPromote))
	mux.HandleFunc("POST "+adminRollbackPath, s.adminGuard(s.handleAdminRollback))
}

// AdminClient implements engine.Lifecycle over the admin routes, so a
// process that does not share memory with the server (cmd/rapidfeed) can
// drive its model lifecycle. Token is the bearer admin token (empty works
// only against a loopback listener, matching the server's guard). Errors
// the server answered as unknown_version or conflict wrap
// engine.ErrUnknownVersion or engine.ErrLifecycleConflict and carry the
// server's message, so callers classify them exactly as in-process.
type AdminClient struct {
	BaseURL string
	Token   string
}

// adminHTTP carries every AdminClient call; the timeout bounds a wedged server.
var adminHTTP = &http.Client{Timeout: 10 * time.Second}

func (c *AdminClient) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := adminHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return remoteAdminError(method, path, resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// remoteAdminError turns a non-2xx admin answer back into a lifecycle
// error: the envelope's unknown_version and conflict codes become the engine
// sentinels (the server's message already begins with the sentinel's text,
// which is not repeated), anything else names the route and status.
func remoteAdminError(method, path string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env errorBody
	msg := string(bytes.TrimSpace(raw))
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		msg = env.Error.Message
	}
	var kind error
	switch env.Error.Code {
	case errCodeUnknownVersion:
		kind = engine.ErrUnknownVersion
	case errCodeConflict:
		kind = engine.ErrLifecycleConflict
	default:
		return fmt.Errorf("serve: admin %s %s: %s: %s", method, path, resp.Status, msg)
	}
	return fmt.Errorf("%w: %s", kind, strings.TrimPrefix(msg, kind.Error()+": "))
}

// Versions implements engine.Lifecycle via GET /admin/models.
func (c *AdminClient) Versions() ([]engine.VersionStatus, error) {
	var out adminVersionsResponse
	if err := c.do(http.MethodGet, adminListPath, nil, &out); err != nil {
		return nil, err
	}
	return out.Versions, nil
}

// Load implements engine.Lifecycle via POST /admin/models/load.
func (c *AdminClient) Load(version string) error {
	return c.do(http.MethodPost, adminLoadPath, adminVersionRequest{Version: version}, nil)
}

// Promote implements engine.Lifecycle via POST /admin/models/promote.
func (c *AdminClient) Promote(version string) error {
	return c.do(http.MethodPost, adminPromotePath, adminVersionRequest{Version: version}, nil)
}

// Rollback implements engine.Lifecycle via POST /admin/models/rollback.
func (c *AdminClient) Rollback() (string, error) {
	var out adminRollbackResponse
	if err := c.do(http.MethodPost, adminRollbackPath, nil, &out); err != nil {
		return "", err
	}
	return out.RolledBack, nil
}
