package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
)

// stubAdmin scripts the lifecycle control plane so the handler tests cover
// only what serve owns: routing, guarding and error mapping.
type stubAdmin struct {
	loadErr    error
	promoteErr error
	loaded     []string
}

func (a *stubAdmin) Versions() ([]engine.VersionStatus, error) {
	return []engine.VersionStatus{{Version: "v1", State: "active", Requests: 7}}, nil
}
func (a *stubAdmin) Load(v string) error {
	if a.loadErr != nil {
		return a.loadErr
	}
	a.loaded = append(a.loaded, v)
	return nil
}
func (a *stubAdmin) Promote(v string) error { return a.promoteErr }
func (a *stubAdmin) Rollback() (string, error) {
	return "aborted candidate v2; active stays v1", nil
}

func adminServer(t *testing.T, admin engine.Lifecycle, token string) http.Handler {
	t.Helper()
	s := NewServer(stubScorer{}, engine.Manifest{Dataset: "test", Config: testConfig()},
		Config{Admin: admin, AdminToken: token})
	s.Log = t.Logf
	return s.Handler()
}

func adminRequest(method, path, body, bearer, remoteAddr string) *http.Request {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	if remoteAddr != "" {
		req.RemoteAddr = remoteAddr
	}
	return req
}

func TestAdminTokenGuard(t *testing.T) {
	h := adminServer(t, &stubAdmin{}, "sekrit")
	cases := []struct {
		name   string
		bearer string
		want   int
	}{
		{"no token", "", http.StatusForbidden},
		{"wrong token", "guess", http.StatusForbidden},
		{"right token", "sekrit", http.StatusOK},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		// A non-loopback peer: only the token may admit it.
		h.ServeHTTP(w, adminRequest(http.MethodGet, "/admin/models", "", tc.bearer, "203.0.113.9:4711"))
		if w.Code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, w.Code, tc.want)
		}
	}
}

func TestAdminLoopbackGuard(t *testing.T) {
	// With no token configured, loopback peers are allowed and everyone else
	// is rejected — model swapping is never open to the network by default.
	h := adminServer(t, &stubAdmin{}, "")
	cases := []struct {
		remote string
		want   int
	}{
		{"127.0.0.1:4711", http.StatusOK},
		{"[::1]:4711", http.StatusOK},
		{"203.0.113.9:4711", http.StatusForbidden},
		{"not-an-addr", http.StatusForbidden},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, adminRequest(http.MethodGet, "/admin/models", "", "", tc.remote))
		if w.Code != tc.want {
			t.Fatalf("peer %s: status %d, want %d", tc.remote, w.Code, tc.want)
		}
	}
}

func TestAdminListVersions(t *testing.T) {
	h := adminServer(t, &stubAdmin{}, "")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, adminRequest(http.MethodGet, "/admin/models", "", "", "127.0.0.1:1"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Versions []engine.VersionStatus `json:"versions"`
	}
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Versions) != 1 || resp.Versions[0].Version != "v1" || resp.Versions[0].Requests != 7 {
		t.Fatalf("versions %+v", resp.Versions)
	}
}

func TestAdminErrorMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"unknown version", fmt.Errorf("wrap: %w", engine.ErrUnknownVersion), http.StatusNotFound},
		{"lifecycle conflict", fmt.Errorf("wrap: %w", engine.ErrLifecycleConflict), http.StatusConflict},
		{"warm-up failure", fmt.Errorf("warm-up of v2 failed: non-finite score"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		h := adminServer(t, &stubAdmin{loadErr: tc.err}, "")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, adminRequest(http.MethodPost, "/admin/models/load",
			`{"version":"v2"}`, "", "127.0.0.1:1"))
		if w.Code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, w.Code, tc.want)
		}
		// The lifecycle error must reach the operator verbatim.
		if !strings.Contains(w.Body.String(), tc.err.Error()) {
			t.Fatalf("%s: body %q does not carry the error", tc.name, w.Body)
		}
	}
}

func TestAdminBadRequests(t *testing.T) {
	admin := &stubAdmin{}
	h := adminServer(t, admin, "")
	for name, body := range map[string]string{
		"not json":        "{",
		"missing version": `{}`,
		"empty version":   `{"version":""}`,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, adminRequest(http.MethodPost, "/admin/models/load", body, "", "127.0.0.1:1"))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, w.Code)
		}
	}
	if len(admin.loaded) != 0 {
		t.Fatalf("bad requests reached the control plane: %v", admin.loaded)
	}
}

func TestAdminAbsentWithoutConfig(t *testing.T) {
	// A server without Config.Admin must expose no admin surface at all.
	s := testServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, adminRequest(http.MethodGet, "/admin/models", "", "", "127.0.0.1:1"))
	if w.Code != http.StatusNotFound {
		t.Fatalf("admin surface present without Config.Admin: status %d", w.Code)
	}
}

// TestAdminClientMatchesRegistry holds the admin wire format to the lifecycle
// contract: one script runs against a registry directly and against a twin
// registry (same store) through AdminClient and the admin routes. Every step
// must give the same rows, the same errors.Is class and the same message.
func TestAdminClientMatchesRegistry(t *testing.T) {
	root := t.TempDir()
	for _, label := range []string{"div-a", "div-b"} {
		man := engine.Manifest{Dataset: "test", Config: testConfig(), Diversifier: "mmr", DiversifierLambda: 0.5}
		if _, err := registry.PublishDiversifier(root, label, man); err != nil {
			t.Fatal(err)
		}
	}
	newRegistry := func() *registry.Registry {
		r, err := registry.New(registry.Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	direct, remote := newRegistry(), newRegistry()
	ts := httptest.NewServer(adminServer(t, remote, ""))
	defer ts.Close()
	client := &AdminClient{BaseURL: ts.URL}

	steps := []struct {
		name, want string // want is the step's errors.Is class
		do         func(engine.Lifecycle) (any, error)
	}{
		{"load unknown", "unknown version", func(l engine.Lifecycle) (any, error) { return nil, l.Load("div-zzz") }},
		{"promote unstaged", "conflict", func(l engine.Lifecycle) (any, error) { return nil, l.Promote("div-a") }},
		{"load first", "ok", func(l engine.Lifecycle) (any, error) { return nil, l.Load("div-a") }},
		{"load candidate", "ok", func(l engine.Lifecycle) (any, error) { return nil, l.Load("div-b") }},
		{"list staged", "ok", func(l engine.Lifecycle) (any, error) { return l.Versions() }},
		{"promote", "ok", func(l engine.Lifecycle) (any, error) { return nil, l.Promote("div-b") }},
		{"list promoted", "ok", func(l engine.Lifecycle) (any, error) { return l.Versions() }},
		{"roll back", "ok", func(l engine.Lifecycle) (any, error) { return l.Rollback() }},
		{"list rolled back", "ok", func(l engine.Lifecycle) (any, error) { return l.Versions() }},
		{"roll back again", "conflict", func(l engine.Lifecycle) (any, error) { return l.Rollback() }},
	}
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, engine.ErrUnknownVersion):
			return "unknown version"
		case errors.Is(err, engine.ErrLifecycleConflict):
			return "conflict"
		}
		return "other"
	}
	for _, st := range steps {
		want, wantErr := st.do(direct)
		if class(wantErr) != st.want {
			t.Fatalf("%s: in-process %s (%v), script expects %s", st.name, class(wantErr), wantErr, st.want)
		}
		got, gotErr := st.do(client)
		if class(gotErr) != st.want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: over the wire %s (%v), in-process %s (%v)", st.name, class(gotErr), gotErr, class(wantErr), wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: over the wire %v, in-process %v", st.name, got, want)
		}
	}

	// The guard still answers the client: a non-loopback peer without the
	// bearer credential is refused, with it admitted.
	h := adminServer(t, remote, "sekrit")
	guarded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.RemoteAddr = "203.0.113.9:4711"
		h.ServeHTTP(w, r)
	}))
	defer guarded.Close()
	if _, err := (&AdminClient{BaseURL: guarded.URL}).Versions(); class(err) != "other" || !strings.Contains(err.Error(), "403") {
		t.Fatalf("client without the admin token: %v, want a 403", err)
	}
	if _, err := (&AdminClient{BaseURL: guarded.URL, Token: "sekrit"}).Versions(); err != nil {
		t.Fatalf("client with the admin token: %v", err)
	}
}

func TestProviderPinFlowsToResponse(t *testing.T) {
	// A provider-labeled pin must surface in the response wire format and
	// reach the Observe hook with the terminal outcome.
	var observed []string
	p := engine.StaticProvider(engine.Pinned{
		Scorer:   stubScorer{},
		Manifest: engine.Manifest{Dataset: "test", Config: testConfig()},
		Version:  "v7",
		Canary:   true,
		Observe: func(outcome string, d time.Duration) {
			observed = append(observed, outcome)
		},
	})
	s := NewProviderServer(p, Config{})
	s.Log = t.Logf
	body, _ := json.Marshal(validRequest())
	w := postRerank(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp engine.Response
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != "v7" || !resp.Canary {
		t.Fatalf("response labels %q canary %v", resp.ModelVersion, resp.Canary)
	}
	if len(observed) != 1 || observed[0] != "ok" {
		t.Fatalf("observed outcomes %v", observed)
	}
}
