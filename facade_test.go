package ramp_test

import (
	"bytes"
	"strings"
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

// TestFacadeAnalysisHelpers exercises the inexpensive public helpers.
func TestFacadeAnalysisHelpers(t *testing.T) {
	// Mechanism curves and quantified Table 1.
	curves, err := ramp.MechanismCurves(ramp.DefaultConfig().RAMP, ramp.BaseTechnology(),
		[]float64{340, 360, 380})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves.Rows) != 4 {
		t.Fatalf("curves rows = %d", len(curves.Rows))
	}
	if _, err := ramp.Table1Quantified(ramp.DefaultConfig().RAMP, 355); err != nil {
		t.Fatal(err)
	}

	// Charting.
	chart, err := ramp.ChartFromTable(curves)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := chart.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EM") {
		t.Error("chart legend missing EM")
	}

	// Cycle analysis.
	sum, err := ramp.AnalyzeCycles([]float64{350, 355, 350, 355, 350}, 1, ramp.DefaultCycleParams())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles <= 0 {
		t.Error("no cycles counted")
	}

	// Aging.
	proj, err := ramp.ProjectAging(ramp.AgingSchedule{Phases: []ramp.AgingPhase{
		{Name: "on", HoursPerDay: 24, FIT: 4000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if proj.LifetimeYears < 28 || proj.LifetimeYears > 29 {
		t.Errorf("lifetime = %v years", proj.LifetimeYears)
	}
	mitigations, err := ramp.AgingMitigations(ramp.AgingSchedule{Phases: []ramp.AgingPhase{
		{Name: "on", HoursPerDay: 24, FIT: 4000},
	}}, 0.5)
	if err != nil || len(mitigations) != 1 {
		t.Fatalf("mitigations: %v, %v", mitigations, err)
	}

	// Lifetime models.
	if err := ramp.SOFRLifetimes().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ramp.WearOutLifetimes().Validate(); err != nil {
		t.Fatal(err)
	}

	// Scenario loading.
	spec, err := ramp.LoadScenario(strings.NewReader(`{"name": "facade"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := spec.Resolve(ramp.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	// DVS ladder.
	ladder := ramp.DefaultLadder(ramp.BaseTechnology())
	if len(ladder) != 5 {
		t.Fatalf("ladder rungs = %d", len(ladder))
	}
}

// TestFacadeTraceRoundTrip exercises the trace interchange helpers.
func TestFacadeTraceRoundTrip(t *testing.T) {
	prof, err := ramp.ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ramp.NewWorkloadStream(prof, 5000)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := ramp.NewSystematicSampler(stream, ramp.SamplerConfig{
		WindowInstrs: 100, PeriodInstrs: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := ramp.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		in, err := sampler.Next()
		if err != nil {
			break
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := ramp.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("round trip decoded %d instructions, want 1000", n)
	}
}

// TestFacadeHeavyPaths exercises the study-backed public functions on a
// minimal study.
func TestFacadeHeavyPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("facade study is slow; skipped with -short")
	}
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 80_000
	profiles := []ramp.Profile{ramp.Profiles()[0], ramp.Profiles()[15]}
	techs := ramp.Technologies()[:2]
	res, err := runDefaultStudy(cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ramp.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty JSON export")
	}
	if _, err := ramp.StructureBreakdown(res, 0, "crafty"); err != nil {
		t.Fatal(err)
	}
	if _, err := ramp.Table3(res); err != nil {
		t.Fatal(err)
	}
	if _, err := ramp.Table4(res); err != nil {
		t.Fatal(err)
	}
	if _, err := ramp.Figure2(res, ramp.SuiteFP); err != nil {
		t.Fatal(err)
	}
	if _, err := ramp.Figure5(res, ramp.SuiteInt, ramp.EM); err != nil {
		t.Fatal(err)
	}

	// DRM, CMP, and remap on the cheapest inputs.
	tr, err := ramp.RunTiming(cfg, profiles[1])
	if err != nil {
		t.Fatal(err)
	}
	tech65, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		t.Fatal(err)
	}
	pol := ramp.DRMPolicy{
		Ladder:         ramp.DefaultLadder(tech65),
		BudgetFIT:      1e9,
		EpochIntervals: 20,
		Headroom:       0.9,
	}
	if _, err := ramp.RunDRM(cfg, tr, tech65, ramp.ReferenceConstants(), pol, 0, 1); err != nil {
		t.Fatal(err)
	}
	tr2, err := ramp.RunTiming(cfg, profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	cmp := ramp.CMPConfig{Base: cfg, Cores: 2}
	if _, err := ramp.EvaluateCMP(cmp, []*ramp.ActivityTrace{tr, tr2}, ramp.BaseTechnology(), 341, nil); err != nil {
		t.Fatal(err)
	}
	advice, err := ramp.AdviseRemap(cfg, tr, techs, ramp.ReferenceConstants(), 1e9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !advice[0].FeasibleAtNominal {
		t.Error("huge budget must be feasible at nominal")
	}
	if _, err := ramp.RunTimingStream(cfg, profiles[0], nil); err == nil {
		t.Error("nil stream accepted")
	}
}
