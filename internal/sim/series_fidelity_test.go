package sim

import (
	"context"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/phase"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/thermal"
	"github.com/ramp-sim/ramp/internal/workload"
)

// transientFixture builds everything RunThermalContext sets up before the
// transient loop, so tests can drive the loop helpers directly.
type transientFixture struct {
	cfg    Config
	tr     *ActivityTrace
	net    *thermal.Network
	pm     *power.Model
	steady thermal.State
}

func newTransientFixture(t testing.TB, instructions int64) *transientFixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Instructions = instructions
	prof := workload.Profiles()[0]
	tech := scaling.Base()
	tr, err := RunTimingContext(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplanFor(tech)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := power.NewModel(cfg.Power, tech, fp.Areas())
	if err != nil {
		t.Fatal(err)
	}
	net, err := thermal.NewNetwork(fp, cfg.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := SolveOperatingPoint(pm, net, tr.Timing.AvgAF, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &transientFixture{cfg: cfg, tr: tr, net: net, pm: pm, steady: steady}
}

// coarsePlan phase-compresses the fixture's full, unsampled trace (no
// ExpandFactor), so the coarse integrator runs on exactly the input the
// exact loop sees.
func (fx *transientFixture) coarsePlan(t testing.TB, fd Fidelity) *phase.Plan {
	t.Helper()
	plan, err := phase.Compress(fx.tr.Timing.Samples, fx.cfg.Machine.CyclesPerMicrosecond(),
		phase.Options{EpsilonAF: fd.PhaseEpsilonAF})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestThermalTransientZeroAlloc pins the exact transient loop at zero
// heap allocations per run once the interval buffer and pooled scratch
// are warm — the CI alloc gate for the thermal stage.
func TestThermalTransientZeroAlloc(t *testing.T) {
	fx := newTransientFixture(t, 100_000)
	ts := &ThermalSeries{Intervals: make([]ThermalInterval, 0, len(fx.tr.Timing.Samples))}
	ctx := context.Background()

	// GC off so the scratch pool cannot be emptied mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		ts.Intervals = ts.Intervals[:0]
		fx.net.Init(fx.steady)
		if err := runTransientExact(ctx, fx.cfg, fx.net, fx.pm, fx.tr, ts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("exact transient loop allocates %v times per run, want 0", allocs)
	}
}

// TestThermalPhaseTransientSteadyStateAllocs pins the coarse integrator's
// per-substep work as allocation-free too: with the interval buffer and
// class table warm, repeat runs only pay the per-cell phase plan and
// class memoization, never per-substep heap traffic.
func TestThermalPhaseTransientSteadyStateAllocs(t *testing.T) {
	fx := newTransientFixture(t, 100_000)
	fd := (&Fidelity{Mode: FidelityPhase}).norm()
	ts := &ThermalSeries{Intervals: make([]ThermalInterval, 0, len(fx.tr.Timing.Samples))}
	ctx := context.Background()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(50, func() {
		ts.Intervals = ts.Intervals[:0]
		fx.net.Init(fx.steady)
		plan := fx.coarsePlan(t, fd)
		if err := runTransientPhases(ctx, fx.net, fx.pm, plan, ts, fd); err != nil {
			t.Fatal(err)
		}
	})
	// The phase plan and class table are per-run cell setup (bounded
	// append growth of the phase/class slices plus the class map), not
	// per-substep traffic; per-substep allocation would scale with the
	// hundreds of substeps and blow far past this bound.
	if allocs > 48 {
		t.Errorf("phase transient allocates %v times per run, want only the per-cell plan", allocs)
	}
}

// BenchmarkThermalTransientExact is the CI-greppable form of the alloc
// gate: the obs job asserts its output reports 0 allocs/op.
func BenchmarkThermalTransientExact(b *testing.B) {
	fx := newTransientFixture(b, 100_000)
	ts := &ThermalSeries{Intervals: make([]ThermalInterval, 0, len(fx.tr.Timing.Samples))}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Intervals = ts.Intervals[:0]
		fx.net.Init(fx.steady)
		if err := runTransientExact(ctx, fx.cfg, fx.net, fx.pm, fx.tr, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// countingCtx counts Err() polls and reports cancellation from the Nth
// poll on. The cadence tests assert the loops return context.Canceled
// after exactly that poll — i.e. cancellation is observed at the first
// poll that sees it, within one cancelCheckInterval window.
type countingCtx struct {
	calls, limit int
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return nil }
func (c *countingCtx) Value(key any) any           { return nil }
func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestThermalCancellationCadence drives the exact transient loop with a
// context that cancels on its third poll: one pre-loop check plus the
// polls at samples 0 and cancelCheckInterval. The loop must return
// immediately at that poll, having made no further ones.
func TestThermalCancellationCadence(t *testing.T) {
	// Enough instructions that the trace spans several cadence windows.
	fx := newTransientFixture(t, 800_000)
	if n := len(fx.tr.Timing.Samples); n <= 2*cancelCheckInterval {
		t.Fatalf("trace too short to exercise the cadence: %d samples", n)
	}
	cctx := &countingCtx{limit: 2}
	ts := &ThermalSeries{}
	err := runTransientExact(cctx, fx.cfg, fx.net, fx.pm, fx.tr, ts)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if cctx.calls != cctx.limit {
		t.Errorf("loop polled %d times after cancellation became visible at poll %d",
			cctx.calls, cctx.limit)
	}
	// The poll that observed cancellation was at sample
	// (limit-1)*cancelCheckInterval; at most one window was processed.
	if got := len(ts.Intervals); got > cctx.limit*cancelCheckInterval {
		t.Errorf("%d intervals processed after cancellation; cadence window is %d",
			got, cancelCheckInterval)
	}
}

// TestMCCancellationCadence does the same for the Monte Carlo replica
// loop, which shares cancelCheckInterval.
func TestMCCancellationCadence(t *testing.T) {
	var b core.Breakdown
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			b.ByStructMech[s][m] = 100
		}
	}
	sampler, err := core.NewLifetimeSampler(b, core.SOFRLifetimes())
	if err != nil {
		t.Fatal(err)
	}
	rr := core.NewReplicaRand()
	lifetimes := make([]float64, 4*cancelCheckInterval)
	cctx := &countingCtx{limit: 2}
	err = sampleSegment(cctx, rr, sampler, 1, 0, 0, len(lifetimes), lifetimes)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if cctx.calls != cctx.limit {
		t.Errorf("replica loop polled %d times after cancellation became visible at poll %d",
			cctx.calls, cctx.limit)
	}
	// Replicas past the poll that observed cancellation must be untouched.
	for r := (cctx.limit - 1) * cancelCheckInterval; r < len(lifetimes); r++ {
		if lifetimes[r] != 0 {
			t.Fatalf("replica %d sampled after cancellation", r)
		}
	}
}

// TestCoarseTransientTracksExact is a single-cell sanity check that the
// coarse integrator follows the exact trajectory on identical input (the
// full, unsampled trace): aggregate temperatures within a fraction of a
// kelvin, far fewer intervals, durations equal.
func TestCoarseTransientTracksExact(t *testing.T) {
	fx := newTransientFixture(t, 200_000)
	exact, err := RunThermalContext(context.Background(), fx.cfg, fx.tr, scaling.Base(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fd := (&Fidelity{Mode: FidelityPhase}).norm()
	coarse := &ThermalSeries{}
	fx.net.Init(fx.steady)
	if err := runTransientPhases(context.Background(), fx.net, fx.pm, fx.coarsePlan(t, fd), coarse, fd); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(exact.AvgMaxStructTempK - coarse.AvgMaxStructTempK); d > 0.5 {
		t.Errorf("avg hottest-structure temperature off by %.3fK", d)
	}
	if d := math.Abs(exact.DieAvgTempK - coarse.DieAvgTempK); d > 0.5 {
		t.Errorf("die-average temperature off by %.3fK", d)
	}
	if d := math.Abs(exact.AvgDynamicW - coarse.AvgDynamicW); d > 0.05*exact.AvgDynamicW {
		t.Errorf("dynamic power off by %.3fW", d)
	}
	var exactDur, coarseDur float64
	for i := range exact.Intervals {
		exactDur += exact.Intervals[i].DurUS
	}
	for i := range coarse.Intervals {
		coarseDur += coarse.Intervals[i].DurUS
	}
	if d := math.Abs(exactDur - coarseDur); d > 1e-6*exactDur {
		t.Errorf("durations differ: exact %.3fµs, coarse %.3fµs", exactDur, coarseDur)
	}
	if len(coarse.Intervals) >= len(exact.Intervals) {
		t.Errorf("coarse integrator produced %d intervals, exact %d — no compression",
			len(coarse.Intervals), len(exact.Intervals))
	}
	if coarse.MaxAF != exact.MaxAF {
		t.Error("coarse integrator lost the raw per-structure activity maxima")
	}
}
