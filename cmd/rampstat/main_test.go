package main

import (
	"strings"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

func TestStateWindowEviction(t *testing.T) {
	st := newState(3)
	for i := 1; i <= 5; i++ {
		st.add(obs.RunRecord{ID: uint64(i)})
	}
	if len(st.recent) != 3 {
		t.Fatalf("window = %d records, want 3", len(st.recent))
	}
	for i, want := range []uint64{3, 4, 5} {
		if st.recent[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d (oldest first)", i, st.recent[i].ID, want)
		}
	}
}

func TestNumPathDigger(t *testing.T) {
	m := map[string]any{
		"admission_queue_depth": float64(2),
		"jobs":                  map[string]any{"queued": float64(5)},
	}
	if v, ok := num(m, "admission_queue_depth"); !ok || v != 2 {
		t.Errorf("flat path = (%v, %v)", v, ok)
	}
	if v, ok := num(m, "jobs", "queued"); !ok || v != 5 {
		t.Errorf("nested path = (%v, %v)", v, ok)
	}
	if _, ok := num(m, "jobs", "missing"); ok {
		t.Error("missing leaf reported ok")
	}
	if _, ok := num(m, "admission_queue_depth", "deeper"); ok {
		t.Error("descending through a leaf reported ok")
	}
}

func TestShortKey(t *testing.T) {
	if got := short("abc"); got != "abc" {
		t.Errorf("short key mangled: %q", got)
	}
	long := strings.Repeat("f", 64)
	if got := short(long); got != strings.Repeat("f", 20)+"…" {
		t.Errorf("long key = %q", got)
	}
}

// TestRenderFrame pins the frame against a synthetic state: outcome and
// cache tallies, queue/runtime gauges, stage-cache hit rates, and the
// slowest-runs table sorted by wall time.
func TestRenderFrame(t *testing.T) {
	st := newState(10)
	st.ledger = obs.LedgerStats{Appended: 42, Retained: 3, Capacity: 512}
	st.add(obs.RunRecord{ID: 1, Kind: "study", Outcome: obs.RunOK,
		ResultCache: obs.ResultMiss, WallMS: 120.5, CPUMS: 300, Key: strings.Repeat("a", 30),
		Cache: map[string]obs.CacheCost{"fit": {Hits: 3, Misses: 1}}})
	st.add(obs.RunRecord{ID: 2, Kind: "mc", Outcome: obs.RunError,
		ResultCache: obs.ResultMiss, WallMS: 900.25, QueueMS: 10, Key: "k2",
		Cache: map[string]obs.CacheCost{"fit": {Hits: 1, Misses: 3}}})
	st.add(obs.RunRecord{ID: 3, Kind: "study", Outcome: obs.RunOK,
		ResultCache: obs.ResultHit, WallMS: 0.5, Key: "k3"})
	st.gauges = map[string]any{
		"admission_queue_depth": float64(1),
		"admission_capacity":    float64(4),
		"jobs":                  map[string]any{"queued": float64(2), "running": float64(1)},
		"sched":                 map[string]any{"queue_depth": float64(0), "in_flight": float64(3)},
		"runtime": map[string]any{
			"goroutines": float64(12), "heap_bytes": float64(2 << 20),
			"gc_pause_total_seconds": 0.004,
		},
	}

	var b strings.Builder
	render(&b, st, 2, time.Date(2026, 8, 8, 10, 30, 0, 0, time.UTC))
	out := b.String()

	for _, want := range []string{
		"rampd ops — 10:30:00",
		"runs: 42 recorded, 3 in window (ok 2, error 1, cancelled 0, deadline 0)",
		"result cache: hit 1, coalesced 0, miss 2",
		"queues: admission 1/4 · jobs queued 2 running 1 · sched ready 0 in-flight 3",
		"runtime: 12 goroutines · heap 2.0 MiB · gc pause 0.004s total",
		"stage caches: fit 50% (4/8)",
		strings.Repeat("a", 20) + "…",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n---\n%s", want, out)
		}
	}

	// Slowest-first table, capped at 2 rows: run 2 (900ms) above run 1
	// (120ms), run 3 cut.
	i2, i1 := strings.Index(out, "\n   2  mc"), strings.Index(out, "\n   1  study")
	if i2 < 0 || i1 < 0 || i2 > i1 {
		t.Errorf("slowest table out of order (i2=%d i1=%d):\n%s", i2, i1, out)
	}
	if strings.Contains(out, "\n   3  study") {
		t.Errorf("table not capped at n=2:\n%s", out)
	}
}

// TestRenderEmptyState: a frame with no data renders headers without
// panicking — the first paint before any event arrives.
func TestRenderEmptyState(t *testing.T) {
	var b strings.Builder
	render(&b, newState(5), 10, time.Now())
	if !strings.Contains(b.String(), "runs: 0 recorded, 0 in window") {
		t.Errorf("empty frame = %q", b.String())
	}
}

// TestRenderFrameDiskHits pins the disk-reuse suffix of a stage cache's
// hit rate: shown when some hits came from spill files, absent otherwise.
func TestRenderFrameDiskHits(t *testing.T) {
	st := newState(10)
	st.add(obs.RunRecord{ID: 1, Kind: "study", Outcome: obs.RunOK, Cache: map[string]obs.CacheCost{
		"fit":     {Hits: 1, Misses: 1},
		"thermal": {Hits: 3, Misses: 1, DiskHits: 2},
	}})
	var b strings.Builder
	render(&b, st, 1, time.Date(2026, 8, 8, 10, 30, 0, 0, time.UTC))
	if want := "stage caches: fit 50% (1/2) · thermal 75% (3/4) disk 2\n"; !strings.Contains(b.String(), want) {
		t.Errorf("frame missing %q\n---\n%s", want, b.String())
	}
}
