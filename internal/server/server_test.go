package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// newTestServer builds a server around a stubbed simulation. The stub
// returns a minimal coherent StudyResult; tests that need real numbers use
// TestServerServesRealStudy instead.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Sim:            sim.DefaultConfig(),
		CacheSize:      8,
		MaxQueue:       4,
		ComputeTimeout: time.Minute,
	}
	cfg.Sim.Instructions = 50_000
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// stubResult fabricates the smallest StudyResult the renderers accept.
func stubResult(cfg sim.Config, techs []scaling.Technology) *sim.StudyResult {
	return &sim.StudyResult{Config: cfg, Techs: techs, Worst: make([]sim.WorstCase, len(techs))}
}

// get issues a request against the handler and decodes the JSON envelope.
func get(t *testing.T, s *Server, target string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON response %q: %v", target, rec.Body.String(), err)
	}
	return rec, body
}

// meta extracts the StudyMeta from a study/mttf response body.
func meta(t *testing.T, body map[string]json.RawMessage) StudyMeta {
	t.Helper()
	var m StudyMeta
	if err := json.Unmarshal(body["meta"], &m); err != nil {
		t.Fatalf("bad meta: %v", err)
	}
	return m
}

// TestConcurrentIdenticalRequestsCoalesce is the acceptance scenario: two
// concurrent identical /v1/study requests run exactly one simulation and
// the coalesce counter reads 1; a repeated request afterwards is a cache
// hit with ~zero compute.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := newTestServer(t, nil)
	var calls atomic.Int64
	release := make(chan struct{})
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		calls.Add(1)
		<-release
		return stubResult(cfg, techs), nil
	}

	const target = "/v1/study?apps=ammp&techs=130nm"
	var wg sync.WaitGroup
	codes := make([]int, 2)
	metas := make([]StudyMeta, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, body := get(t, s, target)
			codes[i] = rec.Code
			if rec.Code == http.StatusOK {
				metas[i] = meta(t, body)
			}
		}()
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Give the second request time to join the open flight, then let the
	// one simulation finish.
	for s.obs.coalesced.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("status codes = %v, want 200s", codes)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want 1", got)
	}
	if got := s.obs.coalesced.Value(); got != 1 {
		t.Errorf("coalesce counter = %d, want 1", got)
	}
	if metas[0].Key == "" || metas[0].Key != metas[1].Key {
		t.Errorf("request keys disagree: %q vs %q", metas[0].Key, metas[1].Key)
	}

	// Repeat: must be a cache hit served without touching the simulator.
	rec, body := get(t, s, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache-hit request status %d", rec.Code)
	}
	m := meta(t, body)
	if m.Cache != "hit" {
		t.Errorf("repeat request cache = %q, want hit", m.Cache)
	}
	if m.ComputeMS >= 1 {
		t.Errorf("cache hit took %.3fms of compute, want <1ms", m.ComputeMS)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cache hit re-ran the simulation (calls=%d)", got)
	}
	if st := s.cache.Stats(); st.MemHits < 1 {
		t.Errorf("cache hits = %d, want >=1", st.MemHits)
	}
}

// TestHundredConcurrentIdenticalRequests hammers one key with 100
// concurrent requests under the race detector: exactly one simulation, 99
// coalesced followers, all served the same result.
func TestHundredConcurrentIdenticalRequests(t *testing.T) {
	s := newTestServer(t, nil)
	var calls atomic.Int64
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the flight open for the stragglers
		return stubResult(cfg, techs), nil
	}

	const n = 100
	start := make(chan struct{})
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec,
				httptest.NewRequest(http.MethodGet, "/v1/study?apps=gcc&techs=90nm", nil))
			if rec.Code == http.StatusOK {
				ok.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := ok.Load(); got != n {
		t.Errorf("%d/%d requests succeeded", got, n)
	}
	// Every request either led the one flight, joined it, hit the cache
	// the flight filled, or (rarely) led a fresh flight whose double-check
	// found the cached value — never a second simulation.
	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want 1", got)
	}
	hits := s.cache.Stats().MemHits
	coalesced := int64(s.obs.coalesced.Value())
	if total := coalesced + hits; total > n-1 || total < n-10 {
		t.Errorf("coalesced(%d) + cache hits(%d) = %d, want ~%d", coalesced, hits, total, n-1)
	}
}

// TestAdmissionQueueSheds proves distinct concurrent studies beyond
// MaxQueue are rejected with 429 + Retry-After while admitted work is
// unaffected.
func TestAdmissionQueueSheds(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxQueue = 1; c.RetryAfter = 3 * time.Second })
	release := make(chan struct{})
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		<-release
		return stubResult(cfg, techs), nil
	}

	first := make(chan int, 1)
	go func() {
		rec, _ := get(t, s, "/v1/study?apps=ammp")
		first <- rec.Code
	}()
	// Wait until the first study holds the only admission slot.
	for len(s.admission) == 0 {
		time.Sleep(time.Millisecond)
	}

	rec, body := get(t, s, "/v1/study?apps=gcc")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	// The hint is queue-aware and jittered: with the admission queue full
	// (load 1.0) it scales the 3s base by 3× ±25%, so 7–12s after ceiling.
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 7 || ra > 12 {
		t.Errorf("Retry-After = %q, want 7..12s (3s base × full-queue scaling ± jitter)",
			rec.Header().Get("Retry-After"))
	}
	if _, hasErr := body["error"]; !hasErr {
		t.Error("429 body carries no error field")
	}
	if got := s.obs.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request status = %d, want 200", code)
	}
}

// TestDeadlineExceededDoesNotPoisonCache proves a study that dies on the
// compute deadline is not cached, and the next identical request computes
// fresh and succeeds.
func TestDeadlineExceededDoesNotPoisonCache(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ComputeTimeout = 20 * time.Millisecond })
	var calls atomic.Int64
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // simulate a run that overruns its deadline
			return nil, ctx.Err()
		}
		return stubResult(cfg, techs), nil
	}

	rec, _ := get(t, s, "/v1/study?apps=ammp")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded status = %d, want 504", rec.Code)
	}
	if got := s.cache.Len(); got != 0 {
		t.Fatalf("failed study was cached (entries=%d)", got)
	}

	rec, body := get(t, s, "/v1/study?apps=ammp")
	if rec.Code != http.StatusOK {
		t.Fatalf("retry status = %d, want 200", rec.Code)
	}
	if m := meta(t, body); m.Cache != "miss" {
		t.Errorf("retry cache = %q, want miss", m.Cache)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("simulations = %d, want 2", got)
	}
}

// TestRequestValidation walks the 4xx paths.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	cases := []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodGet, "/v1/study?apps=nonesuch", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/study?techs=45nm", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/study?instructions=-5", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/study?instructions=999999999", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/study?instructions=junk", "", http.StatusBadRequest},
		{http.MethodDelete, "/v1/study", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/study", `{"unknown_field":1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/mttf", `{"apps":["ammp"]`, http.StatusBadRequest},
		{http.MethodPost, "/v1/profiles", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var req *http.Request
		if tc.body != "" {
			req = httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		} else {
			req = httptest.NewRequest(tc.method, tc.target, nil)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.target, rec.Code, tc.want)
		}
	}
}

// TestProfilesEndpoint lists the registry contents.
func TestProfilesEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := get(t, s, "/v1/profiles")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var profiles []struct {
		Name  string `json:"name"`
		Suite string `json:"suite"`
	}
	if err := json.Unmarshal(body["profiles"], &profiles); err != nil {
		t.Fatal(err)
	}
	want := workload.Names()
	if len(profiles) != len(want) {
		t.Fatalf("%d profiles listed, want %d", len(profiles), len(want))
	}
	for i := range want {
		if profiles[i].Name != want[i] {
			t.Errorf("profile[%d] = %q, want %q", i, profiles[i].Name, want[i])
		}
	}
}

// TestHealthzDrain checks the liveness/readiness split: /readyz flips to
// 503 on drain while /healthz keeps reporting the process alive.
func TestHealthzDrain(t *testing.T) {
	s := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("healthy %s status = %d, want 200", path, rec.Code)
		}
	}
	s.BeginDrain()
	s.BeginDrain() // idempotent
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status = %d, want 503", rec.Code)
	}
	var st string
	_ = json.Unmarshal(body["status"], &st)
	if st != "draining" {
		t.Errorf("draining body status = %q", st)
	}
	if rec, _ := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("draining /healthz status = %d, want 200 (liveness is not readiness)", rec.Code)
	}
}

// TestMetricsEndpoint proves /metrics exposes the acceptance-required
// series: cache hit ratio and scheduler queue depth, plus the request and
// coalescing counters.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	get(t, s, "/v1/study?apps=ammp") // miss
	get(t, s, "/v1/study?apps=ammp") // hit

	rec, _ := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m struct {
		Requests map[string]int64 `json:"requests_total"`
		Status   map[string]int64 `json:"status_total"`
		Latency  map[string]int64 `json:"latency_ms"`
		Cache    struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Sched struct {
			QueueDepth *int64 `json:"queue_depth"`
			InFlight   *int64 `json:"in_flight"`
		} `json:"sched"`
		Coalesced *int64 `json:"coalesced_total"`
		Shed      *int64 `json:"shed_total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["/v1/study"] != 2 {
		t.Errorf("requests_total[/v1/study] = %d, want 2", m.Requests["/v1/study"])
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.HitRatio != 0.5 {
		t.Errorf("cache hit_ratio = %v, want 0.5", m.Cache.HitRatio)
	}
	if m.Sched.QueueDepth == nil || m.Sched.InFlight == nil {
		t.Error("sched queue_depth/in_flight gauges missing from /metrics")
	}
	if m.Coalesced == nil || m.Shed == nil {
		t.Error("coalesced_total/shed_total missing from /metrics")
	}
	var total int64
	for _, n := range m.Latency {
		total += n
	}
	if total < 2 {
		t.Errorf("latency histogram holds %d observations, want >=2", total)
	}
	for name := range m.Latency {
		if strings.HasPrefix(name, "le_") && !strings.Contains(name, "ms") {
			t.Errorf("malformed bucket label %q", name)
		}
	}
}

// TestServerServesRealStudy runs the genuine pipeline end to end through
// the HTTP layer: the served document must match a direct library run
// byte-for-byte, /v1/mttf must be warmed by /v1/study's cache entry, and
// the scheduler counters must reflect the completed tasks.
func TestServerServesRealStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	s := newTestServer(t, func(c *Config) {
		c.Sim.Instructions = 20_000
		c.DefaultInstructions = 20_000
	})

	const target = "/v1/study?apps=bzip2&techs=65nm%20(1.0V)"
	rec, body := get(t, s, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("study status = %d: %s", rec.Code, rec.Body.String())
	}
	if m := meta(t, body); m.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", m.Cache)
	}

	// Reference: the same study via the library, rendered the same way.
	cfg := s.cfg.Sim
	cfg.Instructions = 20_000
	prof, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	tech, err := scaling.ByName("65nm (1.0V)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStudyContext(context.Background(), cfg, []workload.Profile{prof},
		[]scaling.Technology{scaling.Base(), tech}, sim.StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var served, direct any
	if err := json.Unmarshal(body["study"], &served); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(report.BuildDocument(res))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &direct); err != nil {
		t.Fatal(err)
	}
	servedJSON, _ := json.Marshal(served)
	wantJSON, _ := json.Marshal(direct)
	if string(servedJSON) != string(wantJSON) {
		t.Error("served study document differs from the direct library run")
	}

	// /v1/mttf shares the cache: same key, zero extra compute.
	rec, body = get(t, s, "/v1/mttf?apps=bzip2&techs=65nm%20(1.0V)")
	if rec.Code != http.StatusOK {
		t.Fatalf("mttf status = %d", rec.Code)
	}
	if m := meta(t, body); m.Cache != "hit" {
		t.Errorf("mttf after study cache = %q, want hit", m.Cache)
	}
	var mttf struct {
		Technologies []struct {
			Tech string  `json:"tech"`
			Avg  float64 `json:"suite_avg_fit"`
		} `json:"technologies"`
	}
	if err := json.Unmarshal(body["mttf"], &mttf); err != nil {
		t.Fatal(err)
	}
	if len(mttf.Technologies) != 2 || mttf.Technologies[0].Tech != "180nm" {
		t.Errorf("mttf technologies = %+v", mttf.Technologies)
	}
	if mttf.Technologies[1].Avg <= 0 {
		t.Error("scaled technology suite-average FIT is zero")
	}

	// The shared scheduler counters saw the study's tasks.
	if s.schedStats.Completed() == 0 {
		t.Error("sched completed counter is zero after a real study")
	}
	if s.schedStats.QueueDepth() != 0 || s.schedStats.InFlight() != 0 {
		t.Error("sched gauges nonzero at rest")
	}
}
