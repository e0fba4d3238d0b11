package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// normalizeMetricsDocument reduces a /metrics JSON document to its
// deterministic content: every runtime.* value is masked, and latency_ms
// collapses to its total count (which bucket a request lands in depends on
// wall time). Everything else — the key tree and every counter — is kept.
func normalizeMetricsDocument(t *testing.T, raw []byte) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bad /metrics JSON %q: %v", raw, err)
	}
	rt, ok := doc["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("runtime block missing: %v", doc["runtime"])
	}
	for k := range rt {
		rt[k] = "masked"
	}
	lat, ok := doc["latency_ms"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ms block missing: %v", doc["latency_ms"])
	}
	var total float64
	for _, v := range lat {
		total += v.(float64)
	}
	doc["latency_ms"] = map[string]any{"total": total}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// pinnedMetricsDocument is the normalized /metrics document after the
// request mix of TestMetricsJSONDocumentPinned. It is the JSON contract of
// /metrics: field names, nesting, and which event books which counter.
const pinnedMetricsDocument = `{
  "admission_capacity": 4,
  "admission_queue_depth": 0,
  "batches_total": 1,
  "cache": {
    "entries": 4,
    "evicted": 0,
    "expired": 0,
    "hit_ratio": 0.4,
    "hits": 2,
    "misses": 3
  },
  "coalesced_total": 0,
  "inflight_http": 1,
  "jobs": {
    "cancelled_total": 0,
    "capacity": 256,
    "deduped_total": 0,
    "done_total": 1,
    "failed_total": 0,
    "live": 0,
    "queued": 0,
    "retried_total": 0,
    "running": 0,
    "submitted_total": 1
  },
  "latency_ms": {
    "total": 7
  },
  "ledger": {
    "appended": 5,
    "capacity": 512,
    "dropped": 0,
    "retained": 5
  },
  "mc_replicas_total": 1000,
  "mc_studies_total": 1,
  "requests_total": {
    "/metrics": 1,
    "/v1/batch": 1,
    "/v1/mttf": 1,
    "/v1/profiles": 1,
    "/v1/study": 3,
    "/v1/study/mc": 1
  },
  "runtime": {
    "gc_pause_total_seconds": "masked",
    "goroutines": "masked",
    "heap_bytes": "masked",
    "num_gc": "masked"
  },
  "sched": {
    "completed": 1,
    "failed": 0,
    "in_flight": 0,
    "queue_depth": 0
  },
  "schema_version": 1,
  "shed_total": 0,
  "stage_cache": {
    "fit": {
      "disk_failures": 0,
      "disk_hits": 0,
      "entries": 0,
      "evicted": 0,
      "mem_hits": 0,
      "misses": 0,
      "puts": 0
    },
    "thermal": {
      "disk_failures": 0,
      "disk_hits": 0,
      "entries": 0,
      "evicted": 0,
      "mem_hits": 0,
      "misses": 0,
      "puts": 0
    },
    "timing": {
      "disk_failures": 0,
      "disk_hits": 0,
      "entries": 0,
      "evicted": 0,
      "mem_hits": 0,
      "misses": 0,
      "puts": 0
    }
  },
  "status_total": {
    "200": 5,
    "202": 1,
    "400": 1
  },
  "streams_total": 0,
  "studies_total": 3
}`

// TestMetricsJSONDocumentPinned drives a fixed request mix — a /v1/study
// miss and hit, a /v1/mttf hit, a 400, /v1/profiles, one MC study and one
// batch submit — and pins the whole normalized /metrics document, so a
// change to where a counter lives cannot silently change what it counts.
func TestMetricsJSONDocumentPinned(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = mcStubRunStudy(nil)

	for _, tc := range []struct {
		target string
		code   int
	}{
		{"/v1/study?apps=ammp&techs=130nm", http.StatusOK},
		{"/v1/study?apps=ammp&techs=130nm", http.StatusOK},
		{"/v1/mttf?apps=ammp&techs=130nm", http.StatusOK},
		{"/v1/study?apps=nosuchapp", http.StatusBadRequest},
		{"/v1/profiles", http.StatusOK},
	} {
		if rec, _ := get(t, s, tc.target); rec.Code != tc.code {
			t.Fatalf("%s status = %d, want %d", tc.target, rec.Code, tc.code)
		}
	}
	rec, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet,
		"/v1/study/mc?apps=gzip&techs=130nm&samples=500&seed=3", nil))
	if rec.Code != http.StatusOK || finalMC(t, events).Meta.Cache != "miss" {
		t.Fatalf("mc status = %d", rec.Code)
	}
	var job BatchJobRequest
	job.Apps = []string{"bzip2"}
	job.Techs = []string{"130nm"}
	submitBatch(t, s, []BatchJobRequest{job}, "")
	// Poll the queue directly: HTTP polling would book a varying number
	// of requests into the document under test.
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.Stats().Done < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch job not done: %+v", s.jobs.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if got := normalizeMetricsDocument(t, rec.Body.Bytes()); got != pinnedMetricsDocument {
		t.Errorf("/metrics document drifted from its pin:\n%s", got)
	}

	// JSON and Prometheus read the same counter.
	var doc struct {
		Requests map[string]int64 `json:"requests_total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	prom := scrapeProm(t, s)
	want := `ramp_http_requests_total{endpoint="/v1/study"} ` + strconv.FormatInt(doc.Requests["/v1/study"], 10)
	if !strings.Contains(prom, want+"\n") {
		t.Errorf("prometheus lacks %q", want)
	}
}

// expvarLatencyBucket is the JSON bucket rule /metrics used when it kept
// its own histogram: the first bound b with ms ≤ b, else overflow.
func expvarLatencyBucket(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	for _, b := range latencyBucketsMS {
		if ms <= b {
			return fmt.Sprintf("le_%gms", b)
		}
	}
	return "overflow"
}

// TestLatencyBucketsMatchExpvarRule proves deriving latency_ms from
// ramp_http_request_duration_seconds buckets every duration exactly as the
// old JSON histogram did: each JSON bound is a registry bound, and single
// observations land in the same bucket at every bound −1/0/+1 ns and on
// log-uniform random durations up to past the last bound.
func TestLatencyBucketsMatchExpvarRule(t *testing.T) {
	for _, b := range latencyBucketsMS {
		if !slices.Contains(obs.DurationBuckets, b/1e3) {
			t.Fatalf("JSON bound %gms is not an obs.DurationBuckets bound", b)
		}
	}
	var ds []time.Duration
	for _, b := range latencyBucketsMS {
		at := time.Duration(b) * time.Millisecond
		ds = append(ds, at-time.Nanosecond, at, at+time.Nanosecond)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20_000; i++ { // log-uniform over 1ns..40s
		ds = append(ds, time.Duration(math.Exp(rng.Float64()*math.Log(float64(40*time.Second)))))
	}
	for _, d := range ds {
		h := obs.NewRegistry().Histogram("d_seconds", "", nil)
		h.Observe(d.Seconds())
		got := latencyMS(h)
		want := expvarLatencyBucket(d)
		if len(got) != 1 || got[want] != 1 {
			t.Fatalf("%v: derived buckets %v, want {%s: 1}", d, got, want)
		}
	}
}
