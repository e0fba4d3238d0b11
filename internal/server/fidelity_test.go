package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// post issues a JSON POST against the handler and decodes the envelope.
func post(t *testing.T, s *Server, target, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.Handler().ServeHTTP(rec, req)
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: bad JSON response %q: %v", target, rec.Body.String(), err)
	}
	return rec, out
}

// TestStudyFidelityParameter pins the fidelity knob end to end: the wire
// parameter reaches the simulation config, "exact" and an absent mode are
// the same request (same cache key), and every distinct mode gets its own
// key so responses never cross-serve between fidelities.
func TestStudyFidelityParameter(t *testing.T) {
	s := newTestServer(t, nil)
	var lastFidelity *sim.Fidelity
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		lastFidelity = cfg.Fidelity
		return stubResult(cfg, techs), nil
	}

	keys := map[string]string{}
	for _, mode := range []string{"", "exact", "phase"} {
		target := "/v1/study?apps=ammp&techs=130nm"
		if mode != "" {
			target += "&fidelity=" + mode
		}
		rec, body := get(t, s, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("fidelity=%q: status %d: %s", mode, rec.Code, rec.Body.String())
		}
		keys[mode] = meta(t, body).Key
		switch mode {
		case "", "exact":
			if lastFidelity != nil && lastFidelity.Mode != sim.FidelityExact {
				t.Errorf("fidelity=%q reached the simulation as %+v", mode, lastFidelity)
			}
		default:
			if lastFidelity == nil || string(lastFidelity.Mode) != mode {
				t.Errorf("fidelity=%q reached the simulation as %+v", mode, lastFidelity)
			}
		}
	}
	if keys[""] != keys["exact"] {
		t.Errorf("explicit exact keyed differently from the default: %q vs %q",
			keys["exact"], keys[""])
	}
	if keys["phase"] == keys[""] {
		t.Errorf("fidelity modes share cache keys: %v", keys)
	}
}

// TestStudyFidelityUnknownMode pins the failure shape: an unknown mode —
// including the retired "adaptive" — is a 400 with the stable error
// envelope naming the valid modes, on the GET parameter and the POST body
// of /v1/study and /v1/study/mc and on a /v1/batch item, and never
// reaches the simulator.
func TestStudyFidelityUnknownMode(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		t.Error("simulation ran for an invalid fidelity mode")
		return stubResult(cfg, techs), nil
	}
	for _, mode := range []string{"turbo", "adaptive"} {
		body := `{"fidelity":"` + mode + `"}`
		for _, tc := range []struct{ method, target, body string }{
			{http.MethodGet, "/v1/study?fidelity=" + mode, ""},
			{http.MethodPost, "/v1/study", body},
			{http.MethodGet, "/v1/study/mc?fidelity=" + mode, ""},
			{http.MethodPost, "/v1/study/mc", body},
			{http.MethodPost, "/v1/batch", `{"jobs":[{"apps":["ammp"],"fidelity":"` + mode + `"}]}`},
		} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", tc.method, tc.target, rec.Code)
				continue
			}
			var env struct{ Error ErrorBody }
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: bad envelope %q: %v", tc.method, tc.target, rec.Body.String(), err)
			}
			if env.Error.Code != CodeBadRequest {
				t.Errorf("%s %s: code %q, want %q", tc.method, tc.target, env.Error.Code, CodeBadRequest)
			}
			if msg := env.Error.Message; !strings.Contains(msg, "exact") || !strings.Contains(msg, "phase") {
				t.Errorf("%s %s: message %q does not name exact and phase", tc.method, tc.target, msg)
			}
		}
	}
}

// TestServerDefaultFidelity pins the server-level default (the rampd
// -default-fidelity flag lands in Config.Sim.Fidelity): requests naming no
// mode inherit it, and an explicit "exact" overrides it back to nil.
func TestServerDefaultFidelity(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Sim.Fidelity = &sim.Fidelity{Mode: sim.FidelityPhase}
	})
	var lastFidelity *sim.Fidelity
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		lastFidelity = cfg.Fidelity
		return stubResult(cfg, techs), nil
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if lastFidelity == nil || lastFidelity.Mode != sim.FidelityPhase {
		t.Errorf("default fidelity not inherited: %+v", lastFidelity)
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm&fidelity=exact"); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if lastFidelity != nil {
		t.Errorf("explicit exact did not override the server default: %+v", lastFidelity)
	}
}
