// Benchmarks for the extension subsystems: the Monte Carlo lifetime
// machinery (relaxing SOFR's exponential assumption) and the dynamic
// reliability management controller.
package ramp_test

import (
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

// extensionBreakdown builds one calibrated breakdown for the lifetime
// benchmarks.
func extensionBreakdown(b *testing.B) ramp.Breakdown {
	b.Helper()
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 100_000
	prof, err := ramp.ProfileByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ramp.RunTiming(cfg, prof)
	if err != nil {
		b.Fatal(err)
	}
	run, err := ramp.EvaluateTech(cfg, tr, ramp.BaseTechnology(), 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return run.RawFIT.Calibrated(ramp.ReferenceConstants())
}

// BenchmarkExtensionCMP measures the chip-multiprocessor pipeline and
// reports the activity-migration FIT benefit on a hot+cool pair at 65nm.
func BenchmarkExtensionCMP(b *testing.B) {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 200_000
	tech, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		b.Fatal(err)
	}
	var traces []*ramp.ActivityTrace
	for _, app := range []string{"ammp", "crafty"} {
		prof, err := ramp.ProfileByName(app)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := ramp.RunTiming(cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	consts := ramp.ReferenceConstants()
	b.ResetTimer()
	var staticFIT, migFIT float64
	for i := 0; i < b.N; i++ {
		sres, err := ramp.EvaluateCMP(ramp.CMPConfig{Base: cfg, Cores: 2}, traces, tech, 341, nil)
		if err != nil {
			b.Fatal(err)
		}
		mres, err := ramp.EvaluateCMP(ramp.CMPConfig{Base: cfg, Cores: 2, MigrateIntervals: 50},
			traces, tech, 341, nil)
		if err != nil {
			b.Fatal(err)
		}
		staticFIT, migFIT = sres.ChipFIT(consts), mres.ChipFIT(consts)
	}
	b.ReportMetric(staticFIT, "FIT_static")
	b.ReportMetric(migFIT, "FIT_migrating")
	b.ReportMetric((1-migFIT/staticFIT)*100, "pct_migrationBenefit")
}

// BenchmarkExtensionDRMController measures the managed-run pipeline and
// reports the frequency each application sustains under a common budget.
func BenchmarkExtensionDRMController(b *testing.B) {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 200_000
	tech, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		b.Fatal(err)
	}
	pol := ramp.DRMPolicy{
		Ladder:         ramp.DefaultLadder(tech),
		BudgetFIT:      16_000,
		EpochIntervals: 50,
		Headroom:       0.9,
		StartLevel:     2,
	}
	for _, app := range []string{"ammp", "crafty"} {
		b.Run(app, func(b *testing.B) {
			prof, err := ramp.ProfileByName(app)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := ramp.RunTiming(cfg, prof)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last ramp.DRMResult
			for i := 0; i < b.N; i++ {
				last, err = ramp.RunDRM(cfg, tr, tech, ramp.ReferenceConstants(), pol, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AvgFreqGHz, "GHz_sustained")
			b.ReportMetric(last.AvgFIT, "FIT_managed")
		})
	}
}
