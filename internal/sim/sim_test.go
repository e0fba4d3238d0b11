package sim

import (
	"context"
	"math"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// testConfig returns a configuration with a short trace for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Instructions = 200_000
	return cfg
}

// testProfiles returns a small but representative subset: a cool FP
// benchmark, a hot INT benchmark, and a mid-range one.
func testProfiles(t *testing.T) []workload.Profile {
	t.Helper()
	var out []workload.Profile
	for _, name := range []string{"ammp", "gzip", "crafty"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Instructions = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero instructions accepted")
	}
	cfg = DefaultConfig()
	cfg.QualFITPerMechanism = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative qualification FIT accepted")
	}
	cfg = DefaultConfig()
	cfg.Machine.ROBSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestRunTiming(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Timing.Instructions != cfg.Instructions {
		t.Fatalf("simulated %d instructions, want %d", tr.Timing.Instructions, cfg.Instructions)
	}
	if len(tr.Timing.Samples) == 0 {
		t.Fatal("no activity samples")
	}
}

func TestEvaluateTechBasics(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	run, err := EvaluateTech(cfg, tr, scaling.Base(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.App != "gzip" || run.Tech.Name != "180nm" {
		t.Fatalf("identity wrong: %+v", run)
	}
	if run.AvgTotalW < 15 || run.AvgTotalW > 45 {
		t.Errorf("180nm total power = %.1f W, implausible", run.AvgTotalW)
	}
	if run.AvgLeakageW <= 0 || run.AvgDynamicW <= 0 {
		t.Error("power components must be positive")
	}
	// Temperature sanity: ambient < sink < die average ≤ hottest block.
	amb := cfg.Thermal.AmbientK
	if !(run.SinkTempK > amb && run.DieAvgTempK > run.SinkTempK &&
		run.MaxStructTempK >= run.DieAvgTempK) {
		t.Errorf("temperature ordering violated: amb %v sink %v die %v max %v",
			amb, run.SinkTempK, run.DieAvgTempK, run.MaxStructTempK)
	}
	if run.MaxStructTempK < 330 || run.MaxStructTempK > 380 {
		t.Errorf("max temp %.1f K outside plausible 180nm range", run.MaxStructTempK)
	}
	if run.RawFIT.Total() <= 0 {
		t.Error("raw FIT must be positive")
	}
	for b, afMax := range run.MaxAF {
		if afMax < 0 || afMax > 1 {
			t.Errorf("MaxAF[%d] = %v out of range", b, afMax)
		}
	}
}

func TestEvaluateTechSinkTarget(t *testing.T) {
	cfg := testConfig()
	prof, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvaluateTech(cfg, tr, scaling.Base(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tech65, err := scaling.ByName("65nm (1.0V)")
	if err != nil {
		t.Fatal(err)
	}
	run65, err := EvaluateTech(cfg, tr, tech65, base.SinkTempK, 1)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: the sink temperature is held constant per application.
	if math.Abs(run65.SinkTempK-base.SinkTempK) > 0.5 {
		t.Fatalf("sink temp not held: base %.2f vs 65nm %.2f", base.SinkTempK, run65.SinkTempK)
	}
	// §5.1: the hottest structure runs hotter despite lower total power.
	if run65.MaxStructTempK <= base.MaxStructTempK {
		t.Fatalf("65nm max temp %.1f not above 180nm %.1f",
			run65.MaxStructTempK, base.MaxStructTempK)
	}
	if run65.AvgTotalW >= base.AvgTotalW {
		t.Fatalf("65nm total power %.1f not below 180nm %.1f (Table 4)",
			run65.AvgTotalW, base.AvgTotalW)
	}
}

func TestEvaluateTechRejections(t *testing.T) {
	cfg := testConfig()
	if _, err := EvaluateTech(cfg, nil, scaling.Base(), 0, 1); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := EvaluateTech(cfg, &ActivityTrace{}, scaling.Base(), 0, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	profiles := testProfiles(t)
	techs := scaling.Generations()
	res, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != len(profiles)*len(techs) {
		t.Fatalf("got %d app runs, want %d", len(res.Apps), len(profiles)*len(techs))
	}
	if len(res.Worst) != len(techs) {
		t.Fatalf("got %d worst-case entries, want %d", len(res.Worst), len(techs))
	}

	// Qualification: suite-average per-mechanism FIT at 180nm must equal
	// the target (§4.4).
	mech := res.SuiteAverageMech(0, 0)
	for m, v := range mech {
		if math.Abs(v-cfg.QualFITPerMechanism) > 1e-6*cfg.QualFITPerMechanism {
			t.Errorf("180nm suite-average %v FIT = %v, want %v",
				core.Mechanism(m), v, cfg.QualFITPerMechanism)
		}
	}
	if got := res.SuiteAverageFIT(0, 0); math.Abs(got-4*cfg.QualFITPerMechanism) > 1e-6 {
		t.Errorf("180nm total suite-average = %v, want %v", got, 4*cfg.QualFITPerMechanism)
	}

	// Headline monotonicity: total FIT rises with scaling (65nm 0.9V may
	// sit below 65nm 1.0V but both above 90nm is not guaranteed for the
	// 0.9V point in general; the paper's Figure 3 shows monotone growth
	// for these curves).
	prevAvg := 0.0
	for ti := range techs {
		avg := res.SuiteAverageFIT(ti, 0)
		if avg <= prevAvg {
			t.Errorf("%s suite-average FIT %v not above previous %v",
				techs[ti].Name, avg, prevAvg)
		}
		prevAvg = avg
	}

	// Worst-case exceeds every individual application at each tech (§5.2).
	for ti := range techs {
		worst := res.WorstFIT(ti).Total()
		for _, a := range res.AppsAt(ti) {
			if fit := res.FIT(a).Total(); fit >= worst {
				t.Errorf("%s: app %s FIT %v not below worst-case %v",
					techs[ti].Name, a.App, fit, worst)
			}
		}
	}

	// The worst-case gap must widen with scaling (§5.2): compare the gap
	// at the base and at 65nm (1.0V), as a fraction of worst-case.
	gap := func(ti int) float64 {
		_, hi := res.FITRange(ti)
		w := res.WorstFIT(ti).Total()
		return (w - hi) / w
	}
	if g0, g4 := gap(0), gap(len(techs)-1); g4 <= g0 {
		t.Errorf("worst-case gap must widen: base %.3f vs 65nm %.3f", g0, g4)
	}

	// Per-application power calibration reproduced Table 3 at 180nm.
	for _, a := range res.AppsAt(0) {
		var want float64
		for _, p := range profiles {
			if p.Name == a.App {
				want = p.TargetPowerW
			}
		}
		if math.Abs(a.AvgTotalW-want) > 0.05*want {
			t.Errorf("%s 180nm power %.2f W, want %.2f ± 5%%", a.App, a.AvgTotalW, want)
		}
	}

	// FIT range across applications widens with scaling (§5.2).
	lo0, hi0 := res.FITRange(0)
	lo4, hi4 := res.FITRange(len(techs) - 1)
	if (hi4 - lo4) <= (hi0 - lo0) {
		t.Errorf("FIT range must widen: base %v vs 65nm %v", hi0-lo0, hi4-lo4)
	}
}

func TestRunStudyRejections(t *testing.T) {
	cfg := testConfig()
	profiles := testProfiles(t)
	if _, err := RunStudyContext(context.Background(), cfg, nil, scaling.Generations(), StudyOptions{}); err == nil {
		t.Error("no profiles accepted")
	}
	if _, err := RunStudyContext(context.Background(), cfg, profiles, nil, StudyOptions{}); err == nil {
		t.Error("no technologies accepted")
	}
	// First technology must be the 180nm calibration anchor.
	gens := scaling.Generations()
	if _, err := RunStudyContext(context.Background(), cfg, profiles, gens[1:], StudyOptions{}); err == nil {
		t.Error("study without base technology accepted")
	}
}

func TestStudyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]
	r1, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Apps {
		f1, f2 := r1.FIT(r1.Apps[i]).Total(), r2.FIT(r2.Apps[i]).Total()
		if f1 != f2 {
			t.Fatalf("run %d FIT differs between identical studies: %v vs %v",
				i, f1, f2)
		}
		if r1.Apps[i].MaxStructTempK != r2.Apps[i].MaxStructTempK {
			t.Fatalf("run %d max temp differs between identical studies", i)
		}
	}
}
