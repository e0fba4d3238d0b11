package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		ok       bool
		pct, val float64
	}{
		{n: 0},
		{n: 19},
		{n: 20, ok: true, pct: 50, val: 10},
		{n: 99, ok: true, pct: 50, val: 50},
		{n: 100, ok: true, pct: 90, val: 90},
		{n: 999, ok: true, pct: 90, val: 900},
		{n: 1000, ok: true, pct: 99, val: 990},
		{n: 10000, ok: true, pct: 99.9, val: 9990},
	} {
		pct, val, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || val != tc.val {
			t.Errorf("tail(1..%d) = p%g %g %v, want p%g %g %v", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestCoverage(t *testing.T) {
	self := map[string]time.Duration{"a": 3 * time.Second, "b": time.Second}
	if got := coverage(self, time.Second, 5*time.Second, 1); got != 1 {
		t.Errorf("fully attributed coverage = %g, want 1", got)
	}
	if got := coverage(self, 2*time.Second, 4*time.Second, 2); got != 0.75 {
		t.Errorf("coverage with a gap = %g, want 0.75", got)
	}
	if got := coverage(self, 0, 0, 2); got != 0 {
		t.Errorf("coverage of an empty window = %g, want 0", got)
	}
}

// hashWarmer digests the memory traffic a sampler replays into it.
type hashWarmer struct{ h hash.Hash }

func (w hashWarmer) WarmAccess(addr uint64, store bool) {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], addr)
	if store {
		b[8] = 1
	}
	w.h.Write(b[:])
}

// streamDigest digests every instruction of s until io.EOF.
func streamDigest(t *testing.T, s trace.Stream) []byte {
	t.Helper()
	h := sha256.New()
	for {
		in, err := s.Next()
		if errors.Is(err, io.EOF) {
			return h.Sum(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
}

// TestTimedGenStreamIsUnchanged checks that the timed wrapper yields the
// generator's exact stream, alone and under the systematic sampler with
// and without memory warming.
func TestTimedGenStreamIsUnchanged(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const n = 250_000 // the 40k head plus two 100k periods and a partial one
	sc := trace.SamplerConfig{WindowInstrs: 10_000, PeriodInstrs: 100_000, HeadInstrs: 40_000}
	for _, tc := range []struct {
		name          string
		sampled, warm bool
	}{{"exact", false, false}, {"phase-skip", true, false}, {"phase-warm", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			digest := func(wrap bool) ([]byte, []byte, *timedGen) {
				gen, err := workload.New(prof, n)
				if err != nil {
					t.Fatal(err)
				}
				var src trace.Stream = gen
				var tg *timedGen
				if wrap {
					tg = newTimedGen(gen, 0, 0)
					if tc.sampled {
						tg = newTimedGen(gen, sc.HeadInstrs, sc.WindowInstrs)
					}
					src = tg
				}
				warm := hashWarmer{sha256.New()}
				if tc.sampled {
					s, err := trace.NewSystematicSampler(src, sc)
					if err != nil {
						t.Fatal(err)
					}
					if tc.warm {
						s.SetWarmer(warm)
					}
					src = s
				}
				return streamDigest(t, src), warm.h.Sum(nil), tg
			}
			want, wantWarm, _ := digest(false)
			got, gotWarm, tg := digest(true)
			if string(got) != string(want) || string(gotWarm) != string(wantWarm) {
				t.Fatal("timed generator changed the instruction stream")
			}
			if tg.produced+tg.skipped != n {
				t.Errorf("produced %d + skipped %d, want %d", tg.produced, tg.skipped, n)
			}
			if tc.sampled && tg.skipped == 0 {
				t.Error("sampled stream skipped nothing")
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names the
// command prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the command, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: command %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
	}
}

func TestWindowedP50(t *testing.T) {
	// Window medians 1, 2, 8 and 30: every window weighs the same, however
	// many ops it holds, so the result is the median of 1, 2, 8, 30.
	lats := []float64{1, 1, 1, 1, 1, 2, 2, 2, 8, 30, 30, 30}
	win := []int{0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 3}
	if got := windowedP50(lats, win); got != 5 {
		t.Errorf("windowedP50 = %g, want 5", got)
	}
}
