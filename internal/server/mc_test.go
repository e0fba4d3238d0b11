package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// mcStubRunStudy returns a runStudy stub that fabricates a finished grid
// with positive FIT breakdowns under unit constants — everything the MC
// sampler reads — deterministically from the request inputs, so two
// servers given the same request produce identical study results.
func mcStubRunStudy(calls *atomic.Int64) func(ctx context.Context, cfg sim.Config,
	profiles []workload.Profile, techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
	return func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		if calls != nil {
			calls.Add(1)
		}
		res := &sim.StudyResult{Config: cfg, Techs: techs,
			Constants: core.UnitConstants(), Worst: make([]sim.WorstCase, len(techs))}
		for ti, tech := range techs {
			for i, p := range profiles {
				var b core.Breakdown
				b.ByStructMech[0][core.EM] = 500 + 100*float64(i) + 50*float64(ti)
				b.ByStructMech[1][core.TDDB] = 300 + 10*float64(i)
				res.Apps = append(res.Apps, sim.AppRun{
					App: p.Name, Suite: p.Suite, Tech: tech, RawFIT: b})
			}
		}
		return res, nil
	}
}

// mcStreamEvent is the decoded superset of every /v1/study/mc event type.
type mcStreamEvent struct {
	SchemaVersion int             `json:"schema_version"`
	Event         string          `json:"event"`
	Key           string          `json:"key"`
	StudyKey      string          `json:"study_key"`
	CellsTotal    int             `json:"cells_total"`
	Samples       int             `json:"samples"`
	Model         string          `json:"model"`
	Cache         string          `json:"cache"`
	Done          int             `json:"done"`
	Total         int             `json:"total"`
	CellIndex     int             `json:"cell_index"`
	Cell          json.RawMessage `json:"cell"`
	Meta          *StudyMeta      `json:"meta"`
	MC            json.RawMessage `json:"mc"`
	Error         *ErrorBody      `json:"error"`
}

// runMC drives the handler to stream completion against a recorder (it
// implements http.Flusher) and returns the decoded events plus raw lines.
func runMC(t *testing.T, s *Server, req *http.Request) (*httptest.ResponseRecorder, []mcStreamEvent, [][]byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var events []mcStreamEvent
	var lines [][]byte
	// Error envelopes (400/429/503) are indented JSON, not NDJSON — leave
	// them to the caller.
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/x-ndjson") {
		return rec, nil, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		lines = append(lines, line)
		var ev mcStreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return rec, events, lines
}

// finalMC extracts the terminal "mc" event, failing if it is missing.
func finalMC(t *testing.T, events []mcStreamEvent) mcStreamEvent {
	t.Helper()
	for _, ev := range events {
		if ev.Event == "mc" {
			return ev
		}
	}
	t.Fatalf("no terminal mc event in %d events", len(events))
	return mcStreamEvent{}
}

// TestMCStreamDeterministicAcrossParallelism is the endpoint's core
// regression: the same request against a parallelism-1 and a parallelism-8
// server must produce byte-identical Monte Carlo summaries — percentiles,
// CIs, everything in the terminal payload.
func TestMCStreamDeterministicAcrossParallelism(t *testing.T) {
	const target = "/v1/study/mc?apps=ammp,gcc&techs=130nm&samples=4000&seed=7&batch=64&percentiles=10,50,90"
	var payloads []json.RawMessage
	var keys []string
	for _, par := range []int{1, 8} {
		s := newTestServer(t, func(c *Config) { c.Parallelism = par })
		s.runStudy = mcStubRunStudy(nil)
		rec, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("parallelism %d: status = %d: %s", par, rec.Code, rec.Body.String())
		}
		if events[0].Event != "meta" || events[0].Cache != "miss" ||
			events[0].CellsTotal != 4 || events[0].Samples != 4000 ||
			events[0].Key == "" || events[0].StudyKey == "" {
			t.Fatalf("parallelism %d: bad meta event: %+v", par, events[0])
		}
		var cells, progress int
		for _, ev := range events {
			switch ev.Event {
			case "mc_cell":
				cells++
			case "mc_progress":
				progress++
			}
		}
		if cells != 4 {
			t.Fatalf("parallelism %d: %d mc_cell events, want 4", par, cells)
		}
		if progress == 0 {
			t.Fatalf("parallelism %d: no mc_progress events at batch=64", par)
		}
		fin := finalMC(t, events)
		payloads = append(payloads, fin.MC)
		keys = append(keys, fin.Meta.Key)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Errorf("MC payload differs between parallelism 1 and 8:\n%s\nvs\n%s",
			payloads[0], payloads[1])
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("MC keys disagree: %q vs %q", keys[0], keys[1])
	}
}

// TestMCStreamPost: the POST body form carries the same knobs, rejects
// unknown fields, and honours the requested percentile set.
func TestMCStreamPost(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = mcStubRunStudy(nil)
	body := `{"apps":["ammp"],"techs":["130nm"],"samples":800,"seed":3,"percentiles":[10,90]}`
	rec, events, _ := runMC(t, s,
		httptest.NewRequest(http.MethodPost, "/v1/study/mc", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	fin := finalMC(t, events)
	var res sim.MCResult
	if err := json.Unmarshal(fin.MC, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.TotalReplicas != 1600 {
		t.Fatalf("cells = %d, replicas = %d", len(res.Cells), res.TotalReplicas)
	}
	for _, c := range res.Cells {
		if len(c.Percentiles) != 2 || c.Percentiles[0].P != 10 || c.Percentiles[1].P != 90 {
			t.Fatalf("bad percentile set: %+v", c.Percentiles)
		}
		if c.Samples != 800 || !(c.MeanYears > 0) {
			t.Fatalf("bad cell summary: %+v", c)
		}
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study/mc",
		strings.NewReader(`{"apps":["ammp"],"bogus":1}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", rec.Code)
	}
}

// TestMCStreamSharesStudyFlight: two concurrent MC requests that differ
// only in seed need the same deterministic study; exactly one simulation
// must run, with the second request coalescing onto the first's flight.
func TestMCStreamSharesStudyFlight(t *testing.T) {
	s := newTestServer(t, nil)
	var calls atomic.Int64
	release := make(chan struct{})
	stub := mcStubRunStudy(&calls)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stub(ctx, cfg, profiles, techs, opts)
	}

	var wg sync.WaitGroup
	finals := make([]mcStreamEvent, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target := "/v1/study/mc?apps=ammp&techs=130nm&samples=500&seed=" + []string{"1", "2"}[i]
			rec, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status = %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			finals[i] = finalMC(t, events)
		}()
	}
	// Both streams must be waiting on the one blocked flight before it is
	// released: the coalesce counter ticks when the second one joins.
	deadline := time.Now().Add(5 * time.Second)
	for s.obs.coalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second MC request never joined the study flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want 1", got)
	}
	if finals[0].Meta.Key == finals[1].Meta.Key {
		t.Errorf("different seeds produced the same MC key %q", finals[0].Meta.Key)
	}
	if bytes.Equal(finals[0].MC, finals[1].MC) {
		t.Errorf("different seeds produced byte-identical MC payloads")
	}
}

// TestMCStreamCacheReplay: an identical repeat is served from the result
// cache — no admission, no recomputation, same terminal payload.
func TestMCStreamCacheReplay(t *testing.T) {
	s := newTestServer(t, nil)
	var calls atomic.Int64
	s.runStudy = mcStubRunStudy(&calls)
	const target = "/v1/study/mc?apps=ammp&techs=130nm&samples=500&seed=11"

	_, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet, target, nil))
	cold := finalMC(t, events)
	if cold.Meta.Cache != "miss" {
		t.Fatalf("first run cache = %q", cold.Meta.Cache)
	}

	_, events2, _ := runMC(t, s, httptest.NewRequest(http.MethodGet, target, nil))
	if events2[0].Event != "meta" || events2[0].Cache != "hit" {
		t.Fatalf("replay meta = %+v", events2[0])
	}
	var cells int
	for _, ev := range events2 {
		if ev.Event == "mc_cell" {
			cells++
		}
		if ev.Event == "mc_progress" {
			t.Errorf("replay emitted a progress event")
		}
	}
	if cells != 2 {
		t.Errorf("replay streamed %d cells, want 2", cells)
	}
	warm := finalMC(t, events2)
	if warm.Meta.Cache != "hit" || !bytes.Equal(cold.MC, warm.MC) {
		t.Errorf("replay payload differs from the computed one")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want 1", got)
	}
	if got := s.obs.mcStudies.Value(); got != 2 {
		t.Errorf("mc_studies_total = %d, want 2", got)
	}
	// Replicas are counted once: replays draw nothing.
	if got := s.obs.mcReplicas.Value(); got != 1000 {
		t.Errorf("mc_replicas_total = %d, want 1000", got)
	}
}

// TestMCStreamCancelFreesAdmission disconnects the client mid-stream and
// requires the computation to be cancelled and the admission slot (the
// only one) returned. Run under -race this also exercises the sampler's
// shutdown paths against the writer loop.
func TestMCStreamCancelFreesAdmission(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxQueue = 1 })
	sawCancel := make(chan error, 1)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		<-ctx.Done() // only a client disconnect can release the stub
		sawCancel <- ctx.Err()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/study/mc?apps=ammp&techs=130nm&samples=1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() { // meta event: the stream is live
		t.Fatal("no meta event")
	}
	cancel() // drop the connection mid-stream

	select {
	case err := <-sawCancel:
		if err == nil {
			t.Fatal("computation context not cancelled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client disconnect never cancelled the computation")
	}

	// The admission slot must come back for the next request.
	s.runStudy = mcStubRunStudy(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet,
			"/v1/study/mc?apps=gcc&techs=130nm&samples=200", nil))
		if rec.Code == http.StatusOK && len(events) > 0 && events[len(events)-1].Event == "mc" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission slot never freed: last status %d", rec.Code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMCBadRequests: every invalid knob maps to a 400 with the standard
// envelope before any NDJSON is written.
func TestMCBadRequests(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxMCSamples = 1000
		c.MaxMCReplicas = 1500
	})
	s.runStudy = mcStubRunStudy(nil)
	bad := []string{
		"/v1/study/mc?apps=ammp&samples=-5",
		"/v1/study/mc?apps=ammp&model=gamma",
		"/v1/study/mc?apps=ammp&percentiles=abc",
		"/v1/study/mc?apps=ammp&percentiles=0",
		"/v1/study/mc?apps=ammp&ci=1.5",
		"/v1/study/mc?apps=ammp&samples=notanumber",
		"/v1/study/mc?apps=nonexistent",
		"/v1/study/mc?apps=ammp&techs=130nm&samples=2000",    // over MaxMCSamples
		"/v1/study/mc?apps=ammp,gcc&techs=130nm&samples=900", // 3600 replicas > MaxMCReplicas
	}
	for _, target := range bad {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target, rec.Code)
			continue
		}
		var envelope ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Errorf("%s: bad envelope: %v", target, err)
			continue
		}
		if envelope.Error.Code != CodeBadRequest || envelope.Error.Message == "" {
			t.Errorf("%s: bad envelope: %+v", target, envelope)
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/study/mc", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("DELETE status = %d, want 400", rec.Code)
	}
}

// TestMCOverloaded: with the only admission slot occupied, an MC request
// is shed with 429 + Retry-After.
func TestMCOverloaded(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxQueue = 1 })
	block := make(chan struct{})
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return stubResult(cfg, techs), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sc := openStream(t, ts, "/v1/study/stream?apps=ammp&techs=130nm")
	defer resp.Body.Close()
	defer close(block)
	if !sc.Scan() {
		t.Fatal("no meta event from the occupying stream")
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/study/mc?apps=gcc&techs=130nm&samples=100", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded MC status = %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Errorf("bad overload envelope: %+v", envelope)
	}
}
