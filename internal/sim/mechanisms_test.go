package sim

import (
	"context"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Golden stage keys captured from the pre-registry implementation (fixed
// four-mechanism arrays, no Mechanisms field anywhere). The registry
// redesign must keep the default mechanism set byte-identical at every
// content-addressed key, or every existing disk cache silently invalidates.
const (
	goldenStudyKey   = "e41ad5058b83171105b1bdc32812e7fe7049a25f9610e6886726b95120fdeb5c"
	goldenTimingKey  = "12acf2de615e811767483a71f7c4cb0c640bc83549a684ebf2471b3172fbbf19"
	goldenThermalKey = "a77dc95cd0aee44792a2f05823157892df6e9191b05b38fc257e4f90c20a8def"
	goldenFITKey     = "595c415d65def1574a58eaa5d1a0ec709c233b592c1f6a9dc23ed759ec094d5f"
	goldenMCStudyKey = "c724f31782f8a86bb64e1e97e6dc2f5ab86ef63248fcb38414b62af44e97f7b9"
)

// Golden stage keys of the default study at phase fidelity, captured
// while a third (adaptive) mode still existed, so removing a mode cannot
// silently move the phase-mode cache.
const (
	goldenPhaseStudyKey   = "9149dd8df4cd5a3852e29dd065221c2dc07356dd61c79488dc1e37333b33ee23"
	goldenPhaseTimingKey  = "bfd8a3eedcdd188af7d5a4f0506e2fd7ceb860a2bf0b16e777f825f68ba54352"
	goldenPhaseThermalKey = "df0f81c4a3bc24548c3f6d4a29ca4240b901d84b5b03a19e9b09e5f5e89bfc5c"
	goldenPhaseFITKey     = "6677d49b6124500b6b665d59e491718c32d398c95626a73d38b1eed925200e6f"
	goldenPhaseMCStudyKey = "923aa26bd0996465b8943bacd088a8760c16222a2d35ed247bd1af139231ceb8"
)

// TestGoldenKeysDefaultSet pins every stage key of the default study to the
// digests the seed implementation produced before mechanisms became
// selectable.
func TestGoldenKeysDefaultSet(t *testing.T) {
	cfg := DefaultConfig()
	profiles := workload.Profiles()
	techs := scaling.Generations()

	if got, err := StudyKey(cfg, profiles, techs); err != nil || got != goldenStudyKey {
		t.Errorf("StudyKey = %s, %v; want golden %s", got, err, goldenStudyKey)
	}
	if got, err := TimingKey(cfg, profiles[0]); err != nil || got != goldenTimingKey {
		t.Errorf("TimingKey = %s, %v; want golden %s", got, err, goldenTimingKey)
	}
	if got, err := ThermalKey(cfg, profiles[0], techs[1]); err != nil || got != goldenThermalKey {
		t.Errorf("ThermalKey = %s, %v; want golden %s", got, err, goldenThermalKey)
	}
	if got, err := FITKey(cfg, profiles[0], techs[1]); err != nil || got != goldenFITKey {
		t.Errorf("FITKey = %s, %v; want golden %s", got, err, goldenFITKey)
	}
	mcfg := MCConfig{Samples: 1000, Model: "sofr", Seed: 42}
	if got, err := MCStudyKey(cfg, mcfg, profiles, techs); err != nil || got != goldenMCStudyKey {
		t.Errorf("MCStudyKey = %s, %v; want golden %s", got, err, goldenMCStudyKey)
	}
}

// TestGoldenKeysPhase pins every stage key of the default study at
// phase fidelity.
func TestGoldenKeysPhase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fidelity = &Fidelity{Mode: FidelityPhase}
	profiles := workload.Profiles()
	techs := scaling.Generations()

	if got, err := StudyKey(cfg, profiles, techs); err != nil || got != goldenPhaseStudyKey {
		t.Errorf("StudyKey = %s, %v; want golden %s", got, err, goldenPhaseStudyKey)
	}
	if got, err := TimingKey(cfg, profiles[0]); err != nil || got != goldenPhaseTimingKey {
		t.Errorf("TimingKey = %s, %v; want golden %s", got, err, goldenPhaseTimingKey)
	}
	if got, err := ThermalKey(cfg, profiles[0], techs[1]); err != nil || got != goldenPhaseThermalKey {
		t.Errorf("ThermalKey = %s, %v; want golden %s", got, err, goldenPhaseThermalKey)
	}
	if got, err := FITKey(cfg, profiles[0], techs[1]); err != nil || got != goldenPhaseFITKey {
		t.Errorf("FITKey = %s, %v; want golden %s", got, err, goldenPhaseFITKey)
	}
	mcfg := MCConfig{Samples: 1000, Model: "sofr", Seed: 42}
	if got, err := MCStudyKey(cfg, mcfg, profiles, techs); err != nil || got != goldenPhaseMCStudyKey {
		t.Errorf("MCStudyKey = %s, %v; want golden %s", got, err, goldenPhaseMCStudyKey)
	}
}

// TestDefaultSetSpellingsShareKeys: every spelling of the paper's four
// mechanisms — nil, canonical order, shuffled, upper-cased — canonicalises
// away and hits the golden keys, so pre-registry caches stay warm.
func TestDefaultSetSpellingsShareKeys(t *testing.T) {
	profiles := workload.Profiles()
	techs := scaling.Generations()
	for _, names := range [][]string{
		nil,
		{},
		{"em", "sm", "tc", "tddb"},
		{"TDDB", "tc", "SM", "em"},
		{"sm", "sm", "em", "tc", "tddb", "EM"},
	} {
		cfg := DefaultConfig()
		cfg.Mechanisms = names
		key, err := StudyKey(cfg, profiles, techs)
		if err != nil {
			t.Fatalf("StudyKey(%v): %v", names, err)
		}
		if key != goldenStudyKey {
			t.Errorf("StudyKey(%v) = %s; want golden %s", names, key, goldenStudyKey)
		}
		fk, err := FITKey(cfg, profiles[0], techs[1])
		if err != nil {
			t.Fatalf("FITKey(%v): %v", names, err)
		}
		if fk != goldenFITKey {
			t.Errorf("FITKey(%v) = %s; want golden %s", names, fk, goldenFITKey)
		}
	}
}

// TestExtendedSetsDivergeOnlyDownstream: adding a mechanism must change the
// study and reliability keys (different physics, different results) while
// leaving the timing and thermal keys untouched (same trace, same
// transient), so ablations share the expensive upstream artifacts.
func TestExtendedSetsDivergeOnlyDownstream(t *testing.T) {
	profiles := workload.Profiles()
	techs := scaling.Generations()
	base := DefaultConfig()

	seenStudy := map[string]string{goldenStudyKey: "default"}
	seenFIT := map[string]string{goldenFITKey: "default"}
	for _, names := range [][]string{
		{"em", "sm", "tc", "tddb", "nbti"},
		{"em", "sm", "tc", "tddb", "hci"},
		{"em", "sm", "tc", "tddb", "nbti", "hci"},
		{"em", "sm", "tc", "tddb", "tc-rainflow"},
		{"em", "nbti"},
	} {
		cfg := base
		cfg.Mechanisms = names
		label := strings.Join(names, ",")

		sk, err := StudyKey(cfg, profiles, techs)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seenStudy[sk]; dup {
			t.Errorf("StudyKey collision: %s and %s share %s", label, prev, sk)
		}
		seenStudy[sk] = label

		fk, err := FITKey(cfg, profiles[0], techs[1])
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seenFIT[fk]; dup {
			t.Errorf("FITKey collision: %s and %s share %s", label, prev, fk)
		}
		seenFIT[fk] = label

		// Upstream stages must not see the mechanism selection.
		if tk, err := TimingKey(cfg, profiles[0]); err != nil || tk != goldenTimingKey {
			t.Errorf("TimingKey(%s) = %s, %v; want golden (mechanisms must not leak upstream)", label, tk, err)
		}
		if hk, err := ThermalKey(cfg, profiles[0], techs[1]); err != nil || hk != goldenThermalKey {
			t.Errorf("ThermalKey(%s) = %s, %v; want golden (mechanisms must not leak upstream)", label, hk, err)
		}
	}

	// Unknown names are rejected at the key boundary, before any work runs.
	bad := base
	bad.Mechanisms = []string{"em", "gamma-ray"}
	if _, err := StudyKey(bad, profiles, techs); err == nil {
		t.Error("StudyKey accepted an unregistered mechanism name")
	}
}

// TestStudyResultsByteIdenticalAcrossDefaultSpellings runs the study twice —
// once with Mechanisms nil, once with a shuffled explicit spelling of the
// default four — and requires the canonical JSON of the results to match
// byte for byte.
func TestStudyResultsByteIdenticalAcrossDefaultSpellings(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]

	implicit, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Mechanisms = []string{"TDDB", "tc", "SM", "em"}
	explicit, err := RunStudyContext(context.Background(), cfg2, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := CanonicalJSON(implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("explicit default-set spelling changed the study result bytes")
	}
	if names := implicit.MechanismNames(); len(names) != 4 {
		t.Errorf("MechanismNames() = %v; want the default four", names)
	}
}

// TestExtendedMechanismStudy exercises the full pipeline with the three new
// mechanisms enabled: NBTI and HCI accumulate per-structure FIT, the
// rainflow TC model contributes a package-level series term, qualification
// calibrates every selected mechanism to the §4.4 budget, and the §5.2
// worst case excludes the series-only mechanism by design.
func TestExtendedMechanismStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	cfg.Mechanisms = []string{"em", "sm", "tc", "tddb", "nbti", "hci", "tc-rainflow"}
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]

	res, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MechanismNames(); len(got) != 7 {
		t.Fatalf("MechanismNames() = %v; want 7 names", got)
	}

	// Qualification (§4.4) drives the base-point suite average of every
	// selected mechanism to the per-mechanism budget.
	avg := res.SuiteAverageMechByName(0, 0)
	for _, name := range res.MechanismNames() {
		if rel := avg[name]/cfg.QualFITPerMechanism - 1; rel > 1e-9 || rel < -1e-9 {
			t.Errorf("base suite-average FIT for %s = %g; want %g", name, avg[name], cfg.QualFITPerMechanism)
		}
	}

	// Per-app breakdowns carry the new mechanisms under their names.
	for _, a := range res.AppsAt(1) {
		fit := res.FIT(a).FITByName()
		for _, name := range []string{core.MechNBTI, core.MechHCI, core.MechTCRainflow} {
			if fit[name] <= 0 {
				t.Errorf("%s @ tech 1: %s FIT = %g; want > 0", a.App, name, fit[name])
			}
		}
	}

	// The worst case evaluates a synthetic steady state, which has no
	// temperature series: the series-only rainflow mechanism contributes 0.
	worst := res.WorstFIT(1).FITByName()
	if worst[core.MechTCRainflow] != 0 {
		t.Errorf("worst-case tc-rainflow FIT = %g; want 0 (series-only)", worst[core.MechTCRainflow])
	}
	for _, name := range []string{core.MechEM, core.MechNBTI, core.MechHCI} {
		if worst[name] <= 0 {
			t.Errorf("worst-case %s FIT = %g; want > 0", name, worst[name])
		}
	}
}

// TestMCStudyWithExtendedSet: Monte Carlo sampling must handle mechanisms
// beyond the legacy four — SOFR falls back to exponential draws, wear-out
// to Weibull — without disturbing the default-set replica stream.
func TestMCStudyWithExtendedSet(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:1]
	techs := scaling.Generations()[:2]
	mcfg := MCConfig{Samples: 400, Model: "wearout", Seed: 7}

	for _, names := range [][]string{nil, {"em", "sm", "tc", "tddb", "nbti", "hci"}} {
		c := cfg
		c.Mechanisms = names
		res, err := RunMCStudy(c, mcfg, profiles, techs)
		if err != nil {
			t.Fatalf("RunMCStudy(%v): %v", names, err)
		}
		for _, cell := range res.Cells {
			if cell.MeanYears <= 0 {
				t.Errorf("mechanisms %v: cell %s@%s mean %g years; want > 0",
					names, cell.App, cell.Tech, cell.MeanYears)
			}
		}
	}
}
