package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// benchStudyInputs returns a small study: enough work to measure, small
// enough that `go test -bench` stays tractable.
func benchStudyInputs(b *testing.B) (Config, []workload.Profile, []scaling.Technology) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Instructions = 100_000
	var profiles []workload.Profile
	for _, name := range []string{"ammp", "gzip", "crafty", "mesa"} {
		p, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	return cfg, profiles, scaling.Generations()
}

// BenchmarkRunStudyPipelined measures the dependency-graph scheduler: a
// profile's scaled evaluations start as soon as its own base calibration
// finishes.
func BenchmarkRunStudyPipelined(b *testing.B) {
	cfg, profiles, techs := benchStudyInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStudyBarriered measures the previous stage-barriered
// execution (all timing, then all base, then each tech in lockstep),
// preserved below as runStudyBarriered for comparison.
func BenchmarkRunStudyBarriered(b *testing.B) {
	cfg, profiles, techs := benchStudyInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runStudyBarriered(cfg, profiles, techs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBarrieredMatchesPipelined pins the benchmark baseline to the real
// implementation: both execution strategies must produce identical results.
func TestBarrieredMatchesPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]
	want, err := runStudyBarriered(cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Apps {
		if !got.FIT(got.Apps[i]).Equal(want.FIT(want.Apps[i])) {
			t.Fatalf("app %d FIT differs between pipelined and barriered runs", i)
		}
	}
	for ti := range want.Worst {
		if !got.WorstFIT(ti).Equal(want.WorstFIT(ti)) {
			t.Fatalf("tech %d worst-case FIT differs between pipelined and barriered runs", ti)
		}
	}
}

// runStudyBarriered is the pre-scheduler RunStudy, kept verbatim as the
// benchmark baseline: unbounded goroutines with a barrier between stages.
func runStudyBarriered(cfg Config, profiles []workload.Profile, techs []scaling.Technology) (*StudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no profiles")
	}
	if len(techs) == 0 {
		return nil, fmt.Errorf("sim: no technologies")
	}
	base := scaling.Base()
	if techs[0].Name != base.Name {
		return nil, fmt.Errorf("sim: first technology must be %s (calibration anchor), got %s",
			base.Name, techs[0].Name)
	}

	// ---- Stage 1: timing simulations, in parallel.
	traces := make([]*ActivityTrace, len(profiles))
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i := range profiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i], errs[i] = RunTiming(cfg, profiles[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: timing %s: %w", profiles[i].Name, err)
		}
	}

	// ---- Stage 2: base technology — solve per-app power scale and
	// capture per-app sink temperatures.
	baseRuns := make([]AppRun, len(profiles))
	scales := make([]float64, len(profiles))
	for i := range profiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scale := 1.0
			run, err := EvaluateTech(cfg, traces[i], base, 0, scale)
			if err != nil {
				errs[i] = err
				return
			}
			if cfg.CalibrateAppPower && profiles[i].TargetPowerW > 0 {
				for pass := 0; pass < 2; pass++ {
					want := profiles[i].TargetPowerW - run.AvgLeakageW
					if want <= 0 || run.AvgDynamicW <= 0 {
						break
					}
					scale *= want / run.AvgDynamicW
					run, err = EvaluateTech(cfg, traces[i], base, 0, scale)
					if err != nil {
						errs[i] = err
						return
					}
				}
			}
			baseRuns[i], scales[i] = run, scale
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: base eval %s: %w", profiles[i].Name, err)
		}
	}

	// ---- Stage 3: reliability qualification at the base point (§4.4).
	var rawAvg [core.NumMechanisms]float64
	for _, run := range baseRuns {
		mech := run.RawFIT.ByMechanism()
		for m := range rawAvg {
			rawAvg[m] += mech[m] / float64(len(baseRuns))
		}
	}
	consts, err := core.Calibrate(rawAvg, cfg.QualFITPerMechanism)
	if err != nil {
		return nil, fmt.Errorf("sim: qualification: %w", err)
	}

	// ---- Stage 4: scaled technology points, holding each application's
	// sink temperature at its base-technology value (§4.3).
	result := &StudyResult{
		Config:    cfg,
		Techs:     techs,
		Constants: consts,
		Apps:      make([]AppRun, 0, len(profiles)*len(techs)),
	}
	result.Apps = append(result.Apps, baseRuns...)
	for _, tech := range techs[1:] {
		runs := make([]AppRun, len(profiles))
		for i := range profiles {
			wg.Add(1)
			go func(i int, tech scaling.Technology) {
				defer wg.Done()
				runs[i], errs[i] = EvaluateTech(cfg, traces[i], tech, baseRuns[i].SinkTempK, scales[i])
			}(i, tech)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sim: %s @ %s: %w", profiles[i].Name, tech.Name, err)
			}
		}
		result.Apps = append(result.Apps, runs...)
	}

	// ---- Stage 5: worst-case ("max") per technology (§5.2).
	result.Worst = make([]WorstCase, len(techs))
	for ti, tech := range techs {
		wc, err := worstCaseFor(cfg, result.AppsAt(ti), tech)
		if err != nil {
			return nil, err
		}
		result.Worst[ti] = wc
	}
	return result, nil
}
