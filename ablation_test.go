// Ablation benchmarks for the scaling-specific design choices DESIGN.md
// calls out: each toggles one modeling term and reports how the 65nm
// failure-rate trajectory responds, quantifying that term's contribution.
package ramp_test

import (
	"sync"
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

// _ablationApps is a small hot/cool subset that preserves the suite spread
// at a fraction of the full-study cost.
var _ablationApps = []string{"ammp", "mesa", "gzip", "crafty"}

const _ablationInstructions = 300_000

// ablationKey identifies a cached ablation study.
type ablationKey struct {
	name string
}

var (
	_ablationMu    sync.Mutex
	_ablationCache = map[ablationKey]*ramp.StudyResult{}
)

// runAblation runs (once per key) a reduced study with the given
// configuration and technology list.
func runAblation(b *testing.B, key string, cfg ramp.Config, techs []ramp.Technology) *ramp.StudyResult {
	b.Helper()
	_ablationMu.Lock()
	defer _ablationMu.Unlock()
	if res, ok := _ablationCache[ablationKey{key}]; ok {
		return res
	}
	var profiles []ramp.Profile
	for _, name := range _ablationApps {
		p, err := ramp.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	res, err := runDefaultStudy(cfg, profiles, techs)
	if err != nil {
		b.Fatal(err)
	}
	_ablationCache[ablationKey{key}] = res
	return res
}

func ablationConfig() ramp.Config {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = _ablationInstructions
	return cfg
}

// mechRatio65 returns mechanism m's suite-average 65nm(1.0V)/180nm ratio.
func mechRatio65(res *ramp.StudyResult, m ramp.Mechanism) float64 {
	m0 := res.SuiteAverageMech(0, 0)
	mN := res.SuiteAverageMech(len(res.Techs)-1, 0)
	return mN[m] / m0[m]
}

// BenchmarkAblationEMGeometry compares the EM trajectory with the wire
// geometry factor off (κ⁰), at the calibrated effective value (κ^1.7),
// and at the paper's literal derivation (κ²). The spread shows how much
// of the EM increase is geometry versus temperature.
func BenchmarkAblationEMGeometry(b *testing.B) {
	for _, tc := range []struct {
		name string
		exp  float64
	}{{"off", 0}, {"effective", 1.7}, {"paperLiteral", 2.0}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := ablationConfig()
			cfg.RAMP.EM.GeomExponent = tc.exp
			res := runAblation(b, "emgeom-"+tc.name, cfg, ramp.Technologies())
			for i := 0; i < b.N; i++ {
				_ = mechRatio65(res, ramp.EM)
			}
			b.ReportMetric(mechRatio65(res, ramp.EM), "x_EM_65nm")
		})
	}
}

// BenchmarkAblationTDDBTox toggles the gate-oxide thinning factor: without
// it, voltage reduction makes scaled TDDB *more* reliable — the paper's
// core TDDB finding inverts.
func BenchmarkAblationTDDBTox(b *testing.B) {
	for _, tc := range []struct {
		name   string
		decade float64
	}{{"off", 1e9}, {"default", ramp.DefaultConfig().RAMP.TDDB.ToxDecadeNm}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := ablationConfig()
			cfg.RAMP.TDDB.ToxDecadeNm = tc.decade
			res := runAblation(b, "tddbtox-"+tc.name, cfg, ramp.Technologies())
			for i := 0; i < b.N; i++ {
				_ = mechRatio65(res, ramp.TDDB)
			}
			b.ReportMetric(mechRatio65(res, ramp.TDDB), "x_TDDB_65nm")
		})
	}
}

// BenchmarkAblationTDDBVoltage toggles the cross-technology voltage
// benefit: without it the TDDB explosion at 65nm is far larger, showing
// how much relief non-ideal-but-still-falling supply voltage provides.
func BenchmarkAblationTDDBVoltage(b *testing.B) {
	for _, tc := range []struct {
		name string
		exp  float64
	}{{"off", 0}, {"default", ramp.DefaultConfig().RAMP.TDDB.VoltExponent}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := ablationConfig()
			cfg.RAMP.TDDB.VoltExponent = tc.exp
			res := runAblation(b, "tddbvolt-"+tc.name, cfg, ramp.Technologies())
			for i := 0; i < b.N; i++ {
				_ = mechRatio65(res, ramp.TDDB)
			}
			b.ReportMetric(mechRatio65(res, ramp.TDDB), "x_TDDB_65nm")
		})
	}
}

// BenchmarkAblationJmaxDerate removes the 33%-per-generation interconnect
// current-density reduction (Table 4), quantifying how much EM relief
// designers buy with it.
func BenchmarkAblationJmaxDerate(b *testing.B) {
	base := ramp.BaseTechnology()
	for _, tc := range []struct {
		name   string
		derate bool
	}{{"withDerate", true}, {"withoutDerate", false}} {
		b.Run(tc.name, func(b *testing.B) {
			techs := ramp.Technologies()
			if !tc.derate {
				for i := range techs {
					techs[i].JMaxMAum2 = base.JMaxMAum2
				}
			}
			res := runAblation(b, "jmax-"+tc.name, ablationConfig(), techs)
			for i := 0; i < b.N; i++ {
				_ = mechRatio65(res, ramp.EM)
			}
			b.ReportMetric(mechRatio65(res, ramp.EM), "x_EM_65nm")
		})
	}
}

// BenchmarkAblationPowerGating measures power gating of near-idle
// structures as a reliability mitigation at 65nm (1.0V), where leakage
// dominates idle power: integer workloads with an idle FPU recover FIT by
// removing its leakage heat.
func BenchmarkAblationPowerGating(b *testing.B) {
	for _, tc := range []struct {
		name  string
		gated bool
	}{{"off", false}, {"on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Power.PowerGateIdle = tc.gated
			// Disable the Table 3 per-app power re-calibration: it would
			// scale dynamic power back up to the published totals and mask
			// exactly the idle power the gate removes.
			cfg.CalibrateAppPower = false
			res := runAblation(b, "gate-"+tc.name, cfg, ramp.Technologies())
			ti := len(res.Techs) - 1
			var power, tmax float64
			apps := res.AppsAt(ti)
			for _, a := range apps {
				power += a.AvgTotalW / float64(len(apps))
				tmax += a.MaxStructTempK / float64(len(apps))
			}
			for i := 0; i < b.N; i++ {
				_ = power
			}
			b.ReportMetric(power, "W_65nm")
			b.ReportMetric(tmax, "K_65nm")
			b.ReportMetric(res.SuiteAverageFIT(ti, 0)/res.SuiteAverageFIT(0, 0), "x_totalFIT_65nm")
		})
	}
}

// BenchmarkAblationIdealVoltage extends the paper's 65nm 0.9V-vs-1.0V
// split with a hypothetical ideal-scaling 0.8V point, mapping the FIT
// cost of each step of voltage-scaling shortfall.
func BenchmarkAblationIdealVoltage(b *testing.B) {
	for _, tc := range []struct {
		name string
		vdd  float64
	}{{"ideal0.8V", 0.8}, {"paper0.9V", 0.9}, {"realistic1.0V", 1.0}} {
		b.Run(tc.name, func(b *testing.B) {
			techs := ramp.Technologies()[:4] // keep 180..65nm(0.9V) slots
			t65 := techs[3]
			t65.Name = tc.name
			t65.VddV = tc.vdd
			// Leakage density tracks the Table 4 trend with voltage.
			switch tc.vdd {
			case 0.8:
				t65.LeakW383PerMm2 = 0.48
			case 1.0:
				t65.LeakW383PerMm2 = 0.60
			}
			techs[3] = t65
			res := runAblation(b, "vdd-"+tc.name, ablationConfig(), techs)
			ratio := res.SuiteAverageFIT(3, 0) / res.SuiteAverageFIT(0, 0)
			for i := 0; i < b.N; i++ {
				_ = ratio
			}
			b.ReportMetric(ratio, "x_totalFIT_65nm")
		})
	}
}
