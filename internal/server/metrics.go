package server

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/store"
)

// latencyBucketsMS are the upper bounds of the JSON request-latency
// histogram in milliseconds; requests above the last bound land in the
// overflow bucket. Each bound is also a bound of
// ramp_http_request_duration_seconds (obs.DurationBuckets), from which
// latencyMS derives the JSON buckets.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// latencyMS derives the JSON latency_ms buckets from the request-duration
// histogram: "le_<b>ms" counts the requests in (previous bound, b] and
// "overflow" those above the last bound. Empty buckets are omitted.
func latencyMS(h *obs.Histogram) map[string]uint64 {
	cum, _, _ := h.Snapshot()
	out := map[string]uint64{}
	var below uint64
	for _, b := range latencyBucketsMS {
		n := cum[slices.Index(h.Bounds(), b/1e3)]
		if n > below {
			out[fmt.Sprintf("le_%gms", b)] = n - below
		}
		below = n
	}
	// The +Inf bucket, not Count(): Observe bumps the bucket before the
	// count, so Count() can lag the buckets under concurrent requests.
	if n := cum[len(cum)-1]; n > below {
		out["overflow"] = n - below
	}
	return out
}

// counterMap flattens a one-label counter family to label value → count.
func counterMap(v *obs.CounterVec) map[string]uint64 {
	out := map[string]uint64{}
	v.Each(func(values []string, c *obs.Counter) { out[values[0]] = c.Value() })
	return out
}

// metricsSnapshot assembles the /metrics JSON document. Each value is read
// from the one place that counts it — the obs.Registry instruments behind
// the Prometheus exposition, the result store, the scheduler counters, the
// stage cache, the job queue, and the ledger — so the JSON and Prometheus
// views cannot disagree. Ratio fields are computed here so readers need no
// client-side arithmetic.
func (s *Server) metricsSnapshot() map[string]any {
	o := s.obs
	cs := s.cache.Stats()
	hits := cs.MemHits + cs.DiskHits
	ratio := 0.0
	if lookups := hits + cs.Misses; lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	sn := s.schedStats.Snapshot()
	ss := s.stageCache.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]any{
		"schema_version":    SchemaVersion,
		"requests_total":    counterMap(o.httpRequests),
		"status_total":      counterMap(o.httpResponses),
		"latency_ms":        latencyMS(o.httpLatency),
		"coalesced_total":   o.coalesced.Value(),
		"shed_total":        o.shed.Value(),
		"inflight_http":     o.inflight.Value(),
		"studies_total":     o.studies.Value(),
		"streams_total":     o.streams.Value(),
		"mc_studies_total":  o.mcStudies.Value(),
		"mc_replicas_total": o.mcReplicas.Value(),
		"batches_total":     o.batches.Value(),
		"cache": map[string]any{
			"entries":   cs.Entries,
			"hits":      hits,
			"misses":    cs.Misses,
			"evicted":   cs.Evicted,
			"expired":   cs.Expired,
			"hit_ratio": ratio,
		},
		"sched": map[string]any{
			"queue_depth": sn.QueueDepth,
			"in_flight":   sn.InFlight,
			"completed":   sn.Completed,
			"failed":      sn.Failed,
		},
		"stage_cache": map[string]any{
			"timing":  storeSnapshot(ss.Timing),
			"thermal": storeSnapshot(ss.Thermal),
			"fit":     storeSnapshot(ss.FIT),
		},
		"admission_queue_depth": len(s.admission),
		"admission_capacity":    cap(s.admission),
		"jobs":                  s.jobs.Stats(),
		"runtime": map[string]any{
			"goroutines":             runtime.NumGoroutine(),
			"heap_bytes":             ms.HeapAlloc,
			"gc_pause_total_seconds": float64(ms.PauseTotalNs) / 1e9,
			"num_gc":                 ms.NumGC,
		},
	}
	if s.ledger != nil {
		out["ledger"] = s.ledger.Stats()
	}
	return out
}

// storeSnapshot flattens one stage store's counters.
func storeSnapshot(s store.Stats) map[string]any {
	return map[string]any{
		"entries":       s.Entries,
		"mem_hits":      s.MemHits,
		"disk_hits":     s.DiskHits,
		"misses":        s.Misses,
		"puts":          s.Puts,
		"evicted":       s.Evicted,
		"disk_failures": s.DiskFailures,
	}
}
