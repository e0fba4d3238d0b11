package scenario

import (
	"context"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/sim"
)

func TestLoadMinimal(t *testing.T) {
	s, err := Load(strings.NewReader(`{"name": "smoke"}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, profiles, techs, err := s.Resolve(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 16 || len(techs) != 5 {
		t.Fatalf("defaults: %d profiles, %d techs", len(profiles), len(techs))
	}
	if cfg.Instructions != sim.DefaultConfig().Instructions {
		t.Fatal("instructions changed without override")
	}
}

func TestLoadFull(t *testing.T) {
	doc := `{
		"name": "tddb-ablation",
		"description": "TDDB without the tox factor",
		"apps": ["ammp", "crafty"],
		"techs": ["65nm (1.0V)"],
		"instructions": 300000,
		"overrides": {
			"tddb_tox_decade_nm": 1e9,
			"em_geom_exponent": 0,
			"gating_floor": 0.3,
			"next_line_prefetch": true,
			"bimodal_predictor": true,
			"qual_fit_per_mechanism": 500
		}
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, profiles, techs, err := s.Resolve(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 || profiles[0].Name != "ammp" {
		t.Fatalf("profiles: %+v", profiles)
	}
	// The 180nm anchor is prepended automatically.
	if len(techs) != 2 || techs[0].Name != "180nm" || techs[1].Name != "65nm (1.0V)" {
		t.Fatalf("techs: %+v", techs)
	}
	if cfg.Instructions != 300000 {
		t.Fatalf("instructions = %d", cfg.Instructions)
	}
	if cfg.RAMP.TDDB.ToxDecadeNm != 1e9 || cfg.RAMP.EM.GeomExponent != 0 {
		t.Fatal("RAMP overrides not applied")
	}
	if cfg.Power.GatingFloor != 0.3 {
		t.Fatal("power override not applied")
	}
	if !cfg.Machine.NextLinePrefetch || cfg.Machine.PredictorKind != microarch.PredictorBimodal {
		t.Fatal("machine overrides not applied")
	}
	if cfg.QualFITPerMechanism != 500 {
		t.Fatal("qualification override not applied")
	}
	// The base configuration must be untouched (value semantics).
	if sim.DefaultConfig().RAMP.EM.GeomExponent == 0 {
		t.Fatal("base config mutated")
	}
}

func TestLoadRejections(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name": "x", "bogus": 1}`,
		"missing name":    `{"apps": ["gzip"]}`,
		"unknown app":     `{"name": "x", "apps": ["nonexistent"]}`,
		"unknown tech":    `{"name": "x", "techs": ["42nm"]}`,
		"negative instrs": `{"name": "x", "instructions": -5}`,
		"bad exponent":    `{"name": "x", "overrides": {"em_geom_exponent": 99}}`,
		"bad floor":       `{"name": "x", "overrides": {"gating_floor": 1.5}}`,
		"not json":        `{`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTechsKeepBaseFirstWithoutDuplication(t *testing.T) {
	s, err := Load(strings.NewReader(`{"name": "x", "techs": ["90nm", "180nm"]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, _, techs, err := s.Resolve(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(techs) != 2 || techs[0].Name != "180nm" || techs[1].Name != "90nm" {
		t.Fatalf("techs = %+v", techs)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/scenario.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScenarioRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	doc := `{
		"name": "mini",
		"apps": ["gzip", "ammp"],
		"techs": ["65nm (1.0V)"],
		"instructions": 120000
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, profiles, techs, err := s.Resolve(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStudyContext(context.Background(), cfg, profiles, techs, sim.StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 4 {
		t.Fatalf("study produced %d app runs, want 4", len(res.Apps))
	}
}
