package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a concurrency-safe writer for capturing server output
// while runCtx runs on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startRampd launches runCtx on a random port and returns the base URL
// and the channel carrying its exit error.
func startRampd(t *testing.T, ctx context.Context, out *syncBuffer, extra ...string) (string, chan error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	done := make(chan error, 1)
	go func() { done <- runCtx(ctx, out, args) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("rampd exited before listening: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("rampd never reported its listen address: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// TestRampdServesAndDrains is the end-to-end acceptance test: the daemon
// serves /healthz, /v1/profiles, and /metrics; a SIGTERM-equivalent
// cancellation arriving while a study request is in flight drains that
// request to a successful completion before the process exits.
func TestRampdServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	base, done := startRampd(t, ctx, out, "-n", "300000", "-drain", "60s")

	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	var profiles struct {
		Profiles []struct{ Name string } `json:"profiles"`
	}
	if code := getJSON(t, base+"/v1/profiles", &profiles); code != http.StatusOK {
		t.Fatalf("profiles = %d, want 200", code)
	}
	if len(profiles.Profiles) != 16 {
		t.Fatalf("profiles listed %d benchmarks, want 16", len(profiles.Profiles))
	}

	// Start a study and wait until it is genuinely in flight.
	type result struct {
		code int
		body []byte
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/study?apps=bzip2&techs=130nm")
		if err != nil {
			resc <- result{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: b}
	}()
	waitInFlight := time.Now().Add(10 * time.Second)
	for {
		var m struct {
			InFlightHTTP int64 `json:"inflight_http"`
			Studies      int64 `json:"studies_total"`
		}
		getJSON(t, base+"/metrics", &m)
		// The /metrics request itself counts as one in-flight request; a
		// second one is the study.
		if m.Studies >= 1 && m.InFlightHTTP >= 2 {
			break
		}
		select {
		case r := <-resc:
			// The study outran us; the drain below is then trivially
			// satisfied, but the response must still be good.
			if r.code != http.StatusOK {
				t.Fatalf("study finished early with %d: %s", r.code, r.body)
			}
			resc <- r
		default:
		}
		if time.Now().After(waitInFlight) {
			t.Fatal("study never showed up in /metrics")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGTERM (the signal context firing) while the study runs.
	cancel()

	r := <-resc
	if r.code != http.StatusOK {
		t.Fatalf("in-flight study during drain = %d, want 200: %s", r.code, r.body)
	}
	var study struct {
		Meta struct {
			Cache string `json:"cache"`
		} `json:"meta"`
		Study struct {
			Applications []struct {
				App      string  `json:"app"`
				TotalFIT float64 `json:"total_fit"`
			} `json:"applications"`
		} `json:"study"`
	}
	if err := json.Unmarshal(r.body, &study); err != nil {
		t.Fatalf("bad study body: %v", err)
	}
	if study.Meta.Cache != "miss" {
		t.Errorf("drained study cache = %q, want miss", study.Meta.Cache)
	}
	if len(study.Study.Applications) != 2 {
		t.Errorf("drained study has %d app runs, want 2 (bzip2 @ 180nm, 130nm)", len(study.Study.Applications))
	}
	for _, a := range study.Study.Applications {
		if a.TotalFIT <= 0 {
			t.Errorf("%s: total FIT %v not positive", a.App, a.TotalFIT)
		}
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rampd exit error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rampd did not exit after drain")
	}
	if got := out.String(); !strings.Contains(got, "drained, bye") {
		t.Errorf("drain completion not logged: %q", got)
	}
}

// TestRampdFlagErrors checks flag parsing failures surface as errors.
func TestRampdFlagErrors(t *testing.T) {
	out := &syncBuffer{}
	if err := runCtx(context.Background(), out, []string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := runCtx(context.Background(), out, []string{"-addr", "256.256.256.256:99999"}); err == nil {
		t.Error("unlistenable address accepted")
	}
	// A mode outside exact/phase fails before the daemon listens. The
	// context is already cancelled, so a daemon that did start drains at
	// once instead of serving forever.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := &syncBuffer{}
	err := runCtx(ctx, fresh, []string{"-addr", "127.0.0.1:0", "-default-fidelity", "adaptive"})
	if err == nil || !strings.Contains(err.Error(), "exact") || !strings.Contains(err.Error(), "phase") {
		t.Errorf("-default-fidelity adaptive: err = %v, want one naming exact and phase", err)
	}
	if got := fresh.String(); got != "" {
		t.Errorf("-default-fidelity adaptive: daemon started: %q", got)
	}
}

// TestRampdRestartInProcess runs a second daemon in the same test binary:
// nothing runCtx sets up may be process-global, so a second instance must
// start and serve cleanly after the first.
func TestRampdRestartInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real server")
	}
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	base, done := startRampd(t, ctx, out, "-n", "1000")
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("exit error: %v", err)
	}
}

var pprofRE = regexp.MustCompile(`pprof on (\S+)`)

// TestRampdPprofListener: -pprof-addr serves the profiler index on its own
// socket, and the public API listener does not expose /debug/pprof.
func TestRampdPprofListener(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real server")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	base, done := startRampd(t, ctx, out, "-n", "1000", "-pprof-addr", "127.0.0.1:0")

	m := pprofRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("pprof address not reported: %q", out.String())
	}
	resp, err := http.Get("http://" + m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", resp.StatusCode)
	}

	apiResp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	apiResp.Body.Close()
	if apiResp.StatusCode == http.StatusOK {
		t.Fatal("public API listener serves /debug/pprof")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("exit error: %v", err)
	}
}

// TestRampdBadObservabilityFlags: invalid logging flags fail fast.
func TestRampdBadObservabilityFlags(t *testing.T) {
	out := &syncBuffer{}
	if err := runCtx(context.Background(), out, []string{"-log-level", "loud"}); err == nil {
		t.Error("bad -log-level accepted")
	}
	if err := runCtx(context.Background(), out, []string{"-log-format", "yaml"}); err == nil {
		t.Error("bad -log-format accepted")
	}
}
