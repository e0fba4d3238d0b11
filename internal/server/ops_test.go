package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// opsRuns fetches /v1/ops/runs with the given query and decodes it.
func opsRuns(t *testing.T, s *Server, query string) OpsRunsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ops/runs"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/ops/runs%s status = %d (body %s)", query, rec.Code, rec.Body.String())
	}
	var resp OpsRunsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOpsRunsEndpoint covers the list surface: the envelope, one record
// per serving (miss then hit), and every filter axis.
func TestOpsRunsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	const target = "/v1/study?apps=ammp&techs=130nm"
	for i := 0; i < 2; i++ { // miss, then result-cache hit
		if rec, _ := get(t, s, target); rec.Code != http.StatusOK {
			t.Fatalf("study %d status = %d", i, rec.Code)
		}
	}

	resp := opsRuns(t, s, "")
	if resp.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", resp.SchemaVersion, SchemaVersion)
	}
	if resp.Ledger.Appended != 2 || resp.Ledger.Retained != 2 {
		t.Fatalf("ledger stats = %+v, want 2 appended", resp.Ledger)
	}
	if len(resp.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (newest first)", len(resp.Runs))
	}
	latest, first := resp.Runs[0], resp.Runs[1]
	if latest.ID <= first.ID {
		t.Errorf("runs not newest-first: %d then %d", latest.ID, first.ID)
	}
	if first.ResultCache != obs.ResultMiss || latest.ResultCache != obs.ResultHit {
		t.Errorf("result cache = %q then %q, want miss then hit",
			first.ResultCache, latest.ResultCache)
	}
	for _, rec := range resp.Runs {
		if rec.Kind != "study" || rec.Outcome != obs.RunOK {
			t.Errorf("record = kind %q outcome %q, want study/ok", rec.Kind, rec.Outcome)
		}
		if rec.Key == "" || rec.RequestID == "" || rec.TraceID == "" {
			t.Errorf("record missing identity: %+v", rec)
		}
		if rec.Tenant != "default" {
			t.Errorf("tenant = %q, want default", rec.Tenant)
		}
		if rec.Fidelity != string(sim.FidelityExact) {
			t.Errorf("fidelity = %q, want exact", rec.Fidelity)
		}
		if rec.WallMS < 0 {
			t.Errorf("wall_ms = %v", rec.WallMS)
		}
	}
	if first.Instructions != 50_000 { // one profile × the test default
		t.Errorf("instructions = %d, want 50000", first.Instructions)
	}

	// Filters.
	if got := opsRuns(t, s, "?outcome=ok"); len(got.Runs) != 2 {
		t.Errorf("outcome=ok runs = %d, want 2", len(got.Runs))
	}
	if got := opsRuns(t, s, "?outcome=error"); len(got.Runs) != 0 {
		t.Errorf("outcome=error runs = %d, want 0 (and [] not null)", len(got.Runs))
	}
	if got := opsRuns(t, s, "?kind=study&key="+first.Key); len(got.Runs) != 2 {
		t.Errorf("kind+key filter runs = %d, want 2", len(got.Runs))
	}
	if got := opsRuns(t, s, "?tenant=nobody"); len(got.Runs) != 0 {
		t.Errorf("tenant=nobody runs = %d, want 0", len(got.Runs))
	}
	if got := opsRuns(t, s, "?limit=1"); len(got.Runs) != 1 || got.Runs[0].ID != latest.ID {
		t.Errorf("limit=1 = %d records, want the newest", len(got.Runs))
	}

	// Bad limits are rejected.
	for _, bad := range []string{"0", "-3", "x"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodGet, "/v1/ops/runs?limit="+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", bad, rec.Code)
		}
	}

	// Empty-ledger responses encode runs as [], not null.
	s2 := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ops/runs", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(raw["runs"])); got != "[]" {
		t.Errorf("empty ledger runs = %s, want []", got)
	}
}

// TestOpsRunByID: the detail endpoint, plus its 400/404 answers.
func TestOpsRunByID(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("study status = %d", rec.Code)
	}
	want := opsRuns(t, s, "").Runs[0]

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/ops/runs/"+strconv.FormatUint(want.ID, 10), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status = %d", rec.Code)
	}
	var resp OpsRunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Run.ID != want.ID || resp.Run.Key != want.Key {
		t.Errorf("detail = %+v, want %+v", resp.Run, want)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ops/runs/999", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ops/runs/nope", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", rec.Code)
	}
}

// TestOpsDisabled: a negative ledger size turns the whole ops plane off —
// every surface answers 404 with the error envelope.
func TestOpsDisabled(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.LedgerSize = -1 })
	for _, target := range []string{"/v1/ops/runs", "/v1/ops/runs/1", "/v1/ops/tail"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", target, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: not the error envelope: %s", target, rec.Body.String())
		}
	}
	// Serving still works without a ledger.
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Errorf("study with ledger disabled status = %d", rec.Code)
	}
}

// TestOpsTailStream: meta first, then the replay (oldest first), then live
// records as runs complete — with no duplicates across the replay/live
// boundary.
func TestOpsTailStream(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two runs before the tail starts: both must replay in ID order.
	for _, target := range []string{
		"/v1/study?apps=ammp&techs=130nm",
		"/v1/study?apps=gzip&techs=130nm",
	} {
		if rec, _ := get(t, s, target); rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", target, rec.Code)
		}
	}

	resp, sc := openStream(t, ts, "/v1/ops/tail?replay=10")
	defer resp.Body.Close()

	type event struct {
		SchemaVersion int             `json:"schema_version"`
		Event         string          `json:"event"`
		RequestID     string          `json:"request_id"`
		Run           obs.RunRecord   `json:"run"`
		Ledger        obs.LedgerStats `json:"ledger"`
	}
	next := func() event {
		t.Helper()
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Text(), err)
			}
			if ev.Event == "heartbeat" {
				continue
			}
			return ev
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return event{}
	}

	metaEv := next()
	if metaEv.Event != "meta" || metaEv.SchemaVersion != SchemaVersion ||
		metaEv.RequestID == "" || metaEv.Ledger.Appended != 2 {
		t.Fatalf("meta = %+v", metaEv)
	}
	r1, r2 := next(), next()
	if r1.Event != "run" || r2.Event != "run" || r1.Run.ID != 1 || r2.Run.ID != 2 {
		t.Fatalf("replay = %+v then %+v, want runs 1 and 2 oldest-first", r1, r2)
	}

	// A run completing while the tail is open arrives live, exactly once.
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("live study status = %d", rec.Code)
	}
	r3 := next()
	if r3.Event != "run" || r3.Run.ID != 3 || r3.Run.ResultCache != obs.ResultHit {
		t.Fatalf("live event = %+v, want run 3 (a cache hit)", r3)
	}
}

// TestOpsRunRecordCostsFromRealStudy runs a real (tiny) study and checks
// the cost half of the record: per-stage wall/CPU, cell counts, and
// stage-cache traffic — the attribution the ledger exists for.
func TestOpsRunRecordCostsFromRealStudy(t *testing.T) {
	s := newTestServer(t, nil)
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("study status = %d", rec.Code)
	}
	rec := opsRuns(t, s, "").Runs[0]
	for _, stage := range []string{"timing", "thermal", "fit"} {
		sc, ok := rec.Stages[stage]
		if !ok || sc.Count == 0 {
			t.Errorf("no %s stage cost in %+v", stage, rec.Stages)
			continue
		}
		if sc.CPUMS < 0 || sc.WallMS < 0 {
			t.Errorf("%s cost negative: %+v", stage, sc)
		}
	}
	if rec.Cells != 2 || rec.CellsComputed != 2 { // base + 130nm, cold caches
		t.Errorf("cells = %d computed %d, want 2/2", rec.Cells, rec.CellsComputed)
	}
	if rec.CPUMS <= 0 {
		t.Errorf("cpu_ms = %v, want > 0", rec.CPUMS)
	}
	puts := 0
	for _, c := range rec.Cache {
		puts += c.Puts
	}
	if puts == 0 {
		t.Errorf("no stage-cache traffic recorded: %+v", rec.Cache)
	}

	// MC runs land as kind "mc" with the total replica count (cells ×
	// samples). The endpoint streams NDJSON, so only the status matters.
	mcRec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mcRec, httptest.NewRequest(http.MethodGet,
		"/v1/study/mc?apps=ammp&techs=130nm&samples=500&seed=1", nil))
	if mcRec.Code != http.StatusOK {
		t.Fatalf("mc status = %d", mcRec.Code)
	}
	mc := opsRuns(t, s, "?kind=mc").Runs
	if len(mc) != 1 || mc[0].Replicas != 1000 || mc[0].Outcome != obs.RunOK {
		t.Fatalf("mc records = %+v, want one ok record with 1000 replicas", mc)
	}
}

// TestOpsRunRecordDiskReuse: a server started over another's spill
// directory serves the same study from the spilled FIT artifacts, and its
// run record says so through the stage caches' disk_hits.
func TestOpsRunRecordDiskReuse(t *testing.T) {
	dir := t.TempDir()
	const study = "/v1/study?apps=ammp&techs=130nm"
	first := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	if rec, _ := get(t, first, study); rec.Code != http.StatusOK {
		t.Fatalf("first study status = %d", rec.Code)
	}
	if c := opsRuns(t, first, "").Runs[0].Cache["fit"]; c.DiskHits != 0 || c.Puts == 0 {
		t.Fatalf("cold run fit cache = %+v, want puts and no disk hits", c)
	}

	second := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	if rec, _ := get(t, second, study); rec.Code != http.StatusOK {
		t.Fatalf("second study status = %d", rec.Code)
	}
	rec := opsRuns(t, second, "").Runs[0]
	if c := rec.Cache["fit"]; c.DiskHits != 2 || c.Hits != 2 || c.Misses != 0 {
		t.Fatalf("warm-from-disk fit cache = %+v, want both cells as disk hits", c)
	}
	if rec.CellsComputed != 0 {
		t.Errorf("cells computed = %d, want 0", rec.CellsComputed)
	}
}

// TestOpsRunRecordFailure: a failed study is ledgered with outcome
// "error" and the failure message.
func TestOpsRunRecordFailure(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return nil, context.DeadlineExceeded
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/study?apps=ammp&techs=130nm", nil))
	if rec.Code == http.StatusOK {
		t.Fatalf("study unexpectedly succeeded")
	}
	runs := opsRuns(t, s, "?outcome="+obs.RunDeadline).Runs
	if len(runs) != 1 || runs[0].Error == "" || runs[0].ResultCache != obs.ResultMiss {
		t.Fatalf("deadline records = %+v, want one with the message", runs)
	}
}

// TestTraceparentRoundTrip is the acceptance scenario: an inbound W3C
// traceparent on POST /v1/batch is echoed as a child on the response,
// carried through the job queue into the executor, and lands in the job's
// run record, the executor's logs, and a histogram exemplar in the
// Prometheus exposition — one trace ID joining all three.
func TestTraceparentRoundTrip(t *testing.T) {
	const (
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		spanID  = "00f067aa0ba902b7"
		inbound = "00-" + traceID + "-" + spanID + "-01"
	)
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedBuf{&mu, &buf}, nil))
	s := newTestServer(t, func(c *Config) { c.Logger = logger })
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}

	var r BatchJobRequest
	r.Apps = []string{"ammp"}
	rec, _ := postJSON(t, s, "/v1/batch", BatchRequest{Jobs: []BatchJobRequest{r}},
		map[string]string{"Traceparent": inbound, "X-Request-ID": "trace-probe"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d", rec.Code)
	}

	// The response carries a child of the inbound context: same trace,
	// a fresh span ID (the server's own span, not the caller's).
	echoed := rec.Header().Get("Traceparent")
	tc, ok := obs.ParseTraceparent(echoed)
	if !ok || tc.TraceID != traceID {
		t.Fatalf("echoed traceparent %q does not continue trace %s", echoed, traceID)
	}
	if tc.SpanID == spanID {
		t.Error("server re-used the caller's span ID")
	}

	// The HTTP latency histogram carries the trace as an exemplar.
	// Scraped before the status polling below: exemplars are last-write-
	// wins per bucket, and each poll lands with a fresh trace.
	if !strings.Contains(scrapeProm(t, s), `trace_id="`+traceID+`"`) {
		t.Error("prometheus exposition lacks an exemplar with the inbound trace ID")
	}

	var resp BatchSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	waitBatchDone(t, s, resp.BatchID)

	// The job's run record joined the trace.
	jobRuns := opsRuns(t, s, "?kind=job.study").Runs
	if len(jobRuns) != 1 {
		t.Fatalf("job records = %d, want 1", len(jobRuns))
	}
	jr := jobRuns[0]
	if jr.TraceID != traceID {
		t.Errorf("run record trace_id = %q, want %s", jr.TraceID, traceID)
	}
	if jr.RequestID != "trace-probe" {
		t.Errorf("run record request_id = %q, want trace-probe", jr.RequestID)
	}
	if jr.JobID == "" || jr.Attempt != 1 || jr.QueueMS < 0 {
		t.Errorf("job identity incomplete: %+v", jr)
	}

	// The executor's job logs carry the propagated IDs (span attrs share
	// the same source fields).
	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	sawStart := false
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil {
			continue
		}
		if entry["msg"] == "job start" {
			sawStart = true
			if entry["request_id"] != "trace-probe" || entry["trace_id"] != traceID {
				t.Errorf("job start log lost the trace: %s", line)
			}
		}
	}
	if !sawStart {
		t.Error("no job start log line found")
	}
}

// TestRunWideEventLogged: every appended record emits the one-line "run"
// wide event with the run's dimensions as fields.
func TestRunWideEventLogged(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedBuf{&mu, &buf}, nil))
	s := newTestServer(t, func(c *Config) { c.Logger = logger })
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("study status = %d", rec.Code)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil {
			continue
		}
		if entry["msg"] != "run" {
			continue
		}
		if entry["kind"] != "study" || entry["outcome"] != obs.RunOK ||
			entry["result_cache"] != obs.ResultMiss {
			t.Fatalf("run event fields wrong: %s", line)
		}
		if entry["run_id"] == float64(0) || entry["key"] == "" || entry["trace_id"] == "" {
			t.Fatalf("run event missing identity: %s", line)
		}
		if _, ok := entry["wall_ms"].(float64); !ok {
			t.Fatalf("run event missing wall_ms: %s", line)
		}
		return
	}
	t.Fatal("no wide run event in the log")
}

// TestOpsTailUnderConcurrentRuns hammers the ledger from concurrent
// studies while a tail stream drains — the race-detector scenario for the
// append/subscribe/stream paths. The stream must stay parseable and
// deliver strictly increasing run IDs.
func TestOpsTailUnderConcurrentRuns(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxQueue = 64 })
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sc := openStream(t, ts, "/v1/ops/tail")
	defer resp.Body.Close()

	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct instruction budgets force distinct keys — every
				// request is a fresh run record, some hits, some misses.
				target := "/v1/study?apps=ammp&techs=130nm&instructions=" +
					strconv.Itoa(10_000+(w*perWorker+i)%20)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("study status = %d", rec.Code)
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain the stream until every surviving record has been seen or the
	// ledger says some were dropped for this slow subscriber.
	var lastID uint64
	seen := 0
	deadline := time.After(10 * time.Second)
	lines := make(chan []byte)
	go func() {
		defer close(lines)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-time.After(time.Second):
				return
			}
		}
	}()
	total := int(opsRuns(t, s, "?limit=1").Ledger.Appended)
	if total != workers*perWorker {
		t.Fatalf("appended = %d, want %d", total, workers*perWorker)
	}
drain:
	for seen < total {
		select {
		case line, ok := <-lines:
			if !ok {
				break drain
			}
			var ev struct {
				Event string        `json:"event"`
				Run   obs.RunRecord `json:"run"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("unparseable stream line %q: %v", line, err)
			}
			if ev.Event != "run" {
				continue
			}
			if ev.Run.ID <= lastID {
				t.Fatalf("stream delivered ID %d after %d", ev.Run.ID, lastID)
			}
			lastID = ev.Run.ID
			seen++
		case <-deadline:
			break drain
		}
	}
	dropped := opsRuns(t, s, "?limit=1").Ledger.Dropped
	if uint64(seen)+dropped < uint64(total) {
		t.Fatalf("saw %d of %d records with only %d dropped", seen, total, dropped)
	}
}
