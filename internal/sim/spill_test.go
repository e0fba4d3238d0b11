package sim

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/store"
)

// spillArtifacts runs the three stages once on a small fixed input. The
// FIT artifact is taken under an extended mechanism set with thermal-trace
// recording, so it carries name-keyed rates and a TempTraceK series.
func spillArtifacts(t *testing.T) (*ActivityTrace, *ThermalSeries, *AppRun) {
	t.Helper()
	cfg := testConfig()
	cfg.Instructions = 60_000
	cfg.RecordThermalTrace = true
	cfg.Mechanisms = append(core.DefaultMechanismNames(), core.MechNBTI, core.MechHCI, core.MechTCRainflow)
	tech := scaling.Generations()[2]
	ctx := context.Background()
	tr, err := RunTimingContext(ctx, cfg, testProfiles(t)[1])
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunThermalContext(ctx, cfg, tr, tech, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := AccumulateFITContext(ctx, cfg, ts, tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.RawFIT.Extra) != 3 || len(run.TempTraceK) == 0 {
		t.Fatalf("fixture lacks name-keyed rates or a thermal trace: %d extra, %d trace",
			len(run.RawFIT.Extra), len(run.TempTraceK))
	}
	return tr, ts, &run
}

// roundTrip encodes v through a spilling store and reads it back from a
// fresh store over the same directory, so the frame is exercised too.
func roundTrip[T any](t *testing.T, codec store.Codec[T], v T) T {
	t.Helper()
	dir := t.TempDir()
	w, err := store.New("s", store.Options{Dir: dir}, codec)
	if err != nil {
		t.Fatal(err)
	}
	const key = "00112233445566778899aabbccddeeff"
	if info := w.Put(key, v); !info.Spilled {
		t.Fatal("artifact not spilled")
	}
	r, err := store.New("s", store.Options{Dir: dir}, codec)
	if err != nil {
		t.Fatal(err)
	}
	got, tier := r.Get(key)
	if tier != store.TierDisk {
		t.Fatalf("read back from %v, want disk (stats %+v)", tier, r.Stats())
	}
	return got
}

// TestSpillRoundTripStageArtifacts: every stage artifact reads back from
// its spill file deeply equal to what was written.
func TestSpillRoundTripStageArtifacts(t *testing.T) {
	tr, ts, run := spillArtifacts(t)
	if got := roundTrip(t, timingCodec(), tr); !reflect.DeepEqual(got, tr) {
		t.Error("timing artifact changed through its spill file")
	}
	if got := roundTrip(t, thermalCodec(), ts); !reflect.DeepEqual(got, ts) {
		t.Error("thermal artifact changed through its spill file")
	}
	if got := roundTrip(t, fitCodec(), run); !reflect.DeepEqual(got, run) {
		t.Error("FIT artifact changed through its spill file")
	}
}

// TestSpillNilAndEmptySeries: a nil bulk series reads back nil and an
// empty one reads back empty.
func TestSpillNilAndEmptySeries(t *testing.T) {
	for _, empty := range []bool{false, true} {
		tr := &ActivityTrace{}
		ts := &ThermalSeries{App: "a"}
		run := &AppRun{App: "a"}
		if empty {
			tr.Timing.Samples = []microarch.ActivitySample{}
			ts.Intervals = []ThermalInterval{}
			run.TempTraceK = []float64{}
		}
		gotTr := roundTrip(t, timingCodec(), tr).Timing.Samples
		gotTs := roundTrip(t, thermalCodec(), ts).Intervals
		gotRun := roundTrip(t, fitCodec(), run).TempTraceK
		if (gotTr == nil) == empty || len(gotTr) != 0 ||
			(gotTs == nil) == empty || len(gotTs) != 0 ||
			(gotRun == nil) == empty || len(gotRun) != 0 {
			t.Errorf("empty=%v: series read back as %#v, %#v, %#v", empty, gotTr, gotTs, gotRun)
		}
	}
}

// TestSpillSpecialFloatsKeepBits: NaN (with a payload), ±Inf and -0 in
// the bulk series keep their exact bits.
func TestSpillSpecialFloatsKeepBits(t *testing.T) {
	specials := []float64{math.Float64frombits(0x7ff8_0000_0000_0001), math.NaN(),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	run := roundTrip(t, fitCodec(), &AppRun{TempTraceK: specials})
	for i, f := range specials {
		if !same(run.TempTraceK[i], f) {
			t.Errorf("TempTraceK[%d] = %#x, want %#x", i, math.Float64bits(run.TempTraceK[i]), math.Float64bits(f))
		}
	}

	ts := &ThermalSeries{Intervals: make([]ThermalInterval, len(specials))}
	tr := &ActivityTrace{}
	tr.Timing.Samples = make([]microarch.ActivitySample, len(specials))
	for i, f := range specials {
		iv := &ts.Intervals[i]
		iv.DurUS, iv.DieAvgTempK = f, f
		for s := range iv.AF {
			iv.AF[s], iv.TempK[s] = f, f
			tr.Timing.Samples[i].AF[s] = f
		}
		tr.Timing.Samples[i].Cycles, tr.Timing.Samples[i].Retired = math.MinInt64+int64(i), math.MaxInt64-int64(i)
	}
	gotTs := roundTrip(t, thermalCodec(), ts)
	gotTr := roundTrip(t, timingCodec(), tr)
	for i, f := range specials {
		iv := gotTs.Intervals[i]
		ok := same(iv.DurUS, f) && same(iv.DieAvgTempK, f)
		for s := range iv.AF {
			ok = ok && same(iv.AF[s], f) && same(iv.TempK[s], f) && same(gotTr.Timing.Samples[i].AF[s], f)
		}
		if !ok {
			t.Errorf("element %d lost the bits of %#x", i, math.Float64bits(f))
		}
		if gotTr.Timing.Samples[i].Cycles != tr.Timing.Samples[i].Cycles ||
			gotTr.Timing.Samples[i].Retired != tr.Timing.Samples[i].Retired {
			t.Errorf("sample %d counters changed", i)
		}
	}
}

// TestSpillDecodeRejectsMalformedPayloads: a payload that passes the
// frame checks but is cut short, extended, or carries a series length
// that does not fill it is an error, never a panic or a partial artifact.
func TestSpillDecodeRejectsMalformedPayloads(t *testing.T) {
	codec := thermalCodec()
	b, err := codec.Encode(nil, &ThermalSeries{App: "a", Intervals: make([]ThermalInterval, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(b); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if v, err := codec.Decode(b[:n]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded: %+v", n, len(b), v)
		}
	}
	if _, err := codec.Decode(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("payload with a trailing byte decoded")
	}
	if _, err := codec.Encode(nil, nil); err == nil {
		t.Error("nil artifact encoded")
	}
}

// TestFITAllocsPerInterval bounds the reliability stage's heap traffic on
// a cell with a name-keyed mechanism: at most 128 bytes per interval.
func TestFITAllocsPerInterval(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 400_000
	tech := scaling.Generations()[2]
	ctx := context.Background()
	tr, err := RunTimingContext(ctx, cfg, testProfiles(t)[1])
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunThermalContext(ctx, cfg, tr, tech, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanisms = append(core.DefaultMechanismNames(), core.MechNBTI)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := AccumulateFITContext(ctx, cfg, ts, tech); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per cell of %d intervals", bytes, len(ts.Intervals))
	if per := float64(bytes) / float64(len(ts.Intervals)); per > 128 {
		t.Errorf("AccumulateFITContext allocates %.1f B per interval (%d B over %d intervals), budget 128",
			per, bytes, len(ts.Intervals))
	}
}
