package ramp_test

import (
	"strings"
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

func TestPublicAPISurface(t *testing.T) {
	if got := len(ramp.Profiles()); got != 16 {
		t.Fatalf("Profiles() = %d entries, want 16", got)
	}
	if got := len(ramp.Technologies()); got != 5 {
		t.Fatalf("Technologies() = %d entries, want 5", got)
	}
	if ramp.BaseTechnology().Name != "180nm" {
		t.Fatalf("BaseTechnology() = %q", ramp.BaseTechnology().Name)
	}
	if ramp.NumMechanisms != 4 {
		t.Fatalf("NumMechanisms = %d", ramp.NumMechanisms)
	}
	if _, err := ramp.ProfileByName("gcc"); err != nil {
		t.Fatal(err)
	}
	if _, err := ramp.TechnologyByName("90nm"); err != nil {
		t.Fatal(err)
	}
	if err := ramp.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicStaticTables(t *testing.T) {
	var sb strings.Builder
	if err := ramp.Table1().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TDDB") {
		t.Fatal("Table 1 missing TDDB row")
	}
	sb.Reset()
	if err := ramp.Table2(ramp.DefaultConfig().Machine).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Reorder buffer") {
		t.Fatal("Table 2 missing ROB row")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end study is slow; skipped with -short")
	}
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 150_000
	profiles := ramp.Profiles()[:2]
	techs := ramp.Technologies()[:2]
	res, err := runDefaultStudy(cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 4 {
		t.Fatalf("got %d app runs, want 4", len(res.Apps))
	}
	base := res.SuiteAverageFIT(0, 0)
	scaled := res.SuiteAverageFIT(1, 0)
	if scaled <= base {
		t.Fatalf("130nm FIT %.0f not above 180nm %.0f", scaled, base)
	}
	// Figures render from the public API.
	fig, err := ramp.Figure3(res, ramp.SuiteFP)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "max (worst-case)") {
		t.Fatal("Figure 3 missing worst-case curve")
	}
}

func TestPublicTimingAndEvaluate(t *testing.T) {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 100_000
	prof, err := ramp.ProfileByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ramp.RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	run, err := ramp.EvaluateTech(cfg, tr, ramp.BaseTechnology(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.RawFIT.Total() <= 0 {
		t.Fatal("raw FIT must be positive")
	}
	mech := run.RawFIT.ByMechanism()
	for _, m := range []ramp.Mechanism{ramp.EM, ramp.SM, ramp.TDDB, ramp.TC} {
		if mech[m] <= 0 {
			t.Errorf("mechanism %v rate must be positive", m)
		}
	}
}
