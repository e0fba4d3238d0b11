package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

func TestFidelityValidate(t *testing.T) {
	var nilF *Fidelity
	if err := nilF.Validate(); err != nil {
		t.Errorf("nil fidelity (exact) rejected: %v", err)
	}
	valid := []Fidelity{
		{},
		{Mode: FidelityExact},
		{Mode: FidelityPhase},
		{Mode: FidelityPhase, PhaseEpsilonAF: 0.1, ThermalTolK: 1,
			SampleWindowInstrs: 1000, SamplePeriodInstrs: 5000},
	}
	for _, f := range valid {
		f := f
		if err := f.Validate(); err != nil {
			t.Errorf("valid fidelity %+v rejected: %v", f, err)
		}
	}
	invalid := []Fidelity{
		{Mode: "fast"},
		{Mode: "adaptive"},
		{PhaseEpsilonAF: -0.1},
		{PhaseEpsilonAF: 2},
		{PhaseEpsilonAF: math.NaN()},
		{ThermalTolK: -1},
		{ThermalTolK: math.Inf(1)},
		{SampleWindowInstrs: -1},
		{SampleWindowInstrs: 10_000, SamplePeriodInstrs: 5_000},
	}
	for _, f := range invalid {
		f := f
		if err := f.Validate(); err == nil {
			t.Errorf("invalid fidelity %+v accepted", f)
		}
	}

	// Config.Validate must reject a bad fidelity too.
	cfg := DefaultConfig()
	cfg.Fidelity = &Fidelity{Mode: "fast"}
	if err := cfg.Validate(); err == nil {
		t.Error("config with unknown fidelity mode accepted")
	}
}

func TestFidelityNorm(t *testing.T) {
	var nilF *Fidelity
	n := nilF.norm()
	if n.Mode != FidelityExact {
		t.Errorf("nil fidelity normalised to %q, want exact", n.Mode)
	}
	n = (&Fidelity{Mode: FidelityPhase}).norm()
	if n.PhaseEpsilonAF <= 0 || n.ThermalTolK <= 0 ||
		n.SampleWindowInstrs <= 0 || n.SamplePeriodInstrs < n.SampleWindowInstrs {
		t.Errorf("norm left defaults unfilled: %+v", n)
	}
}

func TestParseFidelityMode(t *testing.T) {
	for _, mode := range []string{"", "exact"} {
		f, err := ParseFidelityMode(mode)
		if err != nil || f != nil {
			t.Errorf("ParseFidelityMode(%q) = %v, %v; want nil, nil", mode, f, err)
		}
	}
	f, err := ParseFidelityMode("phase")
	if err != nil || f == nil || f.Mode != FidelityPhase {
		t.Errorf("ParseFidelityMode(phase) = %v, %v", f, err)
	}
	for _, mode := range []string{"turbo", "adaptive"} {
		_, err := ParseFidelityMode(mode)
		if err == nil {
			t.Errorf("ParseFidelityMode(%q) accepted", mode)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "exact") || !strings.Contains(msg, "phase") {
			t.Errorf("ParseFidelityMode(%q) error %q does not name exact and phase", mode, msg)
		}
	}
}

// TestFidelityKeyInvalidation pins the acceptance contract: fidelity mode
// participates in every stage, study, and MC key, so a cached result from
// one mode can never be served for another.
func TestFidelityKeyInvalidation(t *testing.T) {
	prof := workload.Profiles()[0]
	tech := scaling.Generations()[1]
	profiles := workload.Profiles()[:2]
	techs := scaling.Generations()[:2]
	mcfg := MCConfig{}.Normalized()

	type keySet struct{ timing, thermal, fit, study, mc string }
	keys := func(f *Fidelity) keySet {
		cfg := DefaultConfig()
		cfg.Fidelity = f
		var ks keySet
		var err error
		if ks.timing, err = TimingKey(cfg, prof); err != nil {
			t.Fatal(err)
		}
		if ks.thermal, err = ThermalKey(cfg, prof, tech); err != nil {
			t.Fatal(err)
		}
		if ks.fit, err = FITKey(cfg, prof, tech); err != nil {
			t.Fatal(err)
		}
		if ks.study, err = StudyKey(cfg, profiles, techs); err != nil {
			t.Fatal(err)
		}
		if ks.mc, err = MCStudyKey(cfg, mcfg, profiles, techs); err != nil {
			t.Fatal(err)
		}
		return ks
	}

	exact := keys(nil)
	phase := keys(&Fidelity{Mode: FidelityPhase})

	for _, pair := range [][2]string{
		{exact.timing, phase.timing},
		{exact.thermal, phase.thermal},
		{exact.fit, phase.fit},
		{exact.study, phase.study},
		{exact.mc, phase.mc},
	} {
		if pair[0] == pair[1] {
			t.Errorf("fidelity modes share a cache key: %s", pair[0])
		}
	}

	// Tuning participates too: a different sampling geometry or error
	// tolerance is a different computation.
	window := keys(&Fidelity{Mode: FidelityPhase, SampleWindowInstrs: 2_000, SamplePeriodInstrs: 20_000})
	if window.timing == phase.timing || window.thermal == phase.thermal {
		t.Error("sampling geometry change did not invalidate keys")
	}
	tol := keys(&Fidelity{Mode: FidelityPhase, ThermalTolK: 0.5})
	if tol.thermal == phase.thermal || tol.fit == phase.fit {
		t.Error("thermal tolerance change did not invalidate thermal/FIT keys")
	}
	eps := keys(&Fidelity{Mode: FidelityPhase, PhaseEpsilonAF: 0.1})
	if eps.thermal == phase.thermal || eps.fit == phase.fit {
		t.Error("phase epsilon change did not invalidate thermal/FIT keys")
	}
	// ...but tuning that the stage ignores must not churn its key: the
	// timing stage never reads the thermal tolerance or the epsilon.
	if tol.timing != phase.timing || eps.timing != phase.timing {
		t.Error("thermal tuning change invalidated the timing key")
	}
}

// TestFidelityKeyPrePRCompat pins exact-mode byte compatibility: a nil
// fidelity must marshal to JSON without any fidelity field, so every
// content-addressed key equals what releases predating the field computed.
func TestFidelityKeyPrePRCompat(t *testing.T) {
	cfg := DefaultConfig()
	b, err := CanonicalJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(b)), "fidelity") {
		t.Errorf("nil fidelity leaked into the canonical config encoding:\n%s", b)
	}
}
