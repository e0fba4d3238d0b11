// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §4), plus ablations of the scaling-specific design
// choices. Each experiment benchmark regenerates its artifact from a
// shared study (computed once, outside the timer) and reports the
// headline values of that artifact as benchmark metrics, so
// `go test -bench .` both exercises the pipeline and prints the numbers
// that EXPERIMENTS.md compares against the paper.
package ramp_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

// _benchInstructions balances fidelity and runtime for the shared study.
const _benchInstructions = 500_000

var (
	_studyOnce sync.Once
	_study     *ramp.StudyResult
	_studyErr  error
)

// benchStudy runs the full 16-benchmark, 5-technology study once.
func benchStudy(b *testing.B) *ramp.StudyResult {
	b.Helper()
	_studyOnce.Do(func() {
		cfg := ramp.DefaultConfig()
		cfg.Instructions = _benchInstructions
		_study, _studyErr = runDefaultStudy(cfg, ramp.Profiles(), ramp.Technologies())
	})
	if _studyErr != nil {
		b.Fatal(_studyErr)
	}
	return _study
}

// techMetricName shortens technology names for metric labels.
func techMetricName(name string) string {
	switch name {
	case "65nm (0.9V)":
		return "65nm0.9V"
	case "65nm (1.0V)":
		return "65nm1.0V"
	default:
		return name
	}
}

// BenchmarkTable1Sensitivity exercises the analytic mechanism models
// themselves (Table 1's content): the per-evaluation cost of the four
// failure-rate equations across the operating temperature range.
func BenchmarkTable1Sensitivity(b *testing.B) {
	p := ramp.DefaultConfig().RAMP
	base := ramp.BaseTechnology()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tK := 340 + float64(i%40)
		sink += p.EMRate(0.5, tK, base)
		sink += p.SMRate(tK)
		sink += p.TDDBRate(base.VddV, tK, base)
		sink += p.TCRate(tK)
	}
	if sink == 0 {
		b.Fatal("rates were zero")
	}
}

// BenchmarkTable2BaseMachine measures the Table 2 machine's simulation
// throughput: instructions per second through the full out-of-order
// pipeline model on a representative workload.
func BenchmarkTable2BaseMachine(b *testing.B) {
	cfg := ramp.DefaultConfig()
	prof, err := ramp.ProfileByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Instructions = 200_000
		tr, err := ramp.RunTiming(cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(0)
		b.ReportMetric(float64(tr.Timing.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	}
}

// BenchmarkTable3IPCPower regenerates Table 3: per-application IPC and
// 180nm power. Metrics report the suite averages the paper quotes
// (SpecFP 1.52 IPC / 28.51W; SpecInt 1.79 IPC / 29.66W).
func BenchmarkTable3IPCPower(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		t, err := ramp.Table3(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.RenderCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range []struct {
		label string
		suite ramp.Suite
	}{{"FP", ramp.SuiteFP}, {"INT", ramp.SuiteInt}} {
		var ipc, pw float64
		var n int
		for _, a := range res.AppsAt(0) {
			if a.Suite != s.suite {
				continue
			}
			ipc += a.IPC
			pw += a.AvgTotalW
			n++
		}
		b.ReportMetric(ipc/float64(n), "IPC_"+s.label)
		b.ReportMetric(pw/float64(n), "W_"+s.label)
	}
}

// BenchmarkTable4ScaledPower regenerates Table 4's measured columns: the
// suite-average total power and relative power density per technology
// (paper: 29.1/19.0/14.7/14.4/16.9 W and 1.0/1.31/2.02/3.09/3.63).
func BenchmarkTable4ScaledPower(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		t, err := ramp.Table4(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.RenderCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	var basePower float64
	for ti, tech := range res.Techs {
		var sum float64
		apps := res.AppsAt(ti)
		for _, a := range apps {
			sum += a.AvgTotalW
		}
		avg := sum / float64(len(apps))
		if ti == 0 {
			basePower = avg
		}
		b.ReportMetric(avg, "W_"+techMetricName(tech.Name))
		b.ReportMetric((avg/tech.RelArea)/basePower, "relDensity_"+techMetricName(tech.Name))
	}
}

// BenchmarkFigure2Temperature regenerates Figure 2: maximum structure
// temperatures. Metrics report the suite-average max temperature per
// technology and the 180nm→65nm(1.0V) rise (paper: 15 K).
func BenchmarkFigure2Temperature(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
			t, err := ramp.Figure2(res, suite)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.RenderCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	var rise [2]float64
	for ti, tech := range res.Techs {
		var sum float64
		apps := res.AppsAt(ti)
		for _, a := range apps {
			sum += a.MaxStructTempK
		}
		avg := sum / float64(len(apps))
		b.ReportMetric(avg, "K_"+techMetricName(tech.Name))
		if ti == 0 {
			rise[0] = avg
		}
		if ti == len(res.Techs)-1 {
			rise[1] = avg
		}
	}
	b.ReportMetric(rise[1]-rise[0], "K_rise_180to65")
}

// BenchmarkFigure3TotalFIT regenerates Figure 3: total processor FIT per
// application with the worst-case curve. Metrics report suite-average FIT
// per technology (paper's Figure 3/§5.2 trends).
func BenchmarkFigure3TotalFIT(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
			t, err := ramp.Figure3(res, suite)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.RenderCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	for ti, tech := range res.Techs {
		b.ReportMetric(res.SuiteAverageFIT(ti, 0), "FIT_"+techMetricName(tech.Name))
		b.ReportMetric(res.WorstFIT(ti).Total(), "FITworst_"+techMetricName(tech.Name))
	}
}

// BenchmarkFigure4Breakdown regenerates Figure 4: per-mechanism average
// FIT. Metrics report each mechanism's 65nm(1.0V)/180nm ratio (paper:
// EM ~4-5.5x, SM ~1.8-2.1x, TDDB ~7.7-9.1x, TC ~1.5-1.7x).
func BenchmarkFigure4Breakdown(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
			t, err := ramp.Figure4(res, suite)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.RenderCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	m0 := res.SuiteAverageMech(0, 0)
	mN := res.SuiteAverageMech(len(res.Techs)-1, 0)
	for _, m := range []ramp.Mechanism{ramp.EM, ramp.SM, ramp.TDDB, ramp.TC} {
		b.ReportMetric(mN[m]/m0[m], fmt.Sprintf("x_%v_65nm1.0V", m))
	}
}

// BenchmarkFigure5Mechanisms regenerates Figure 5: all eight panels
// (4 mechanisms × 2 suites) with worst-case curves.
func BenchmarkFigure5Mechanisms(b *testing.B) {
	res := benchStudy(b)
	for i := 0; i < b.N; i++ {
		for _, m := range []ramp.Mechanism{ramp.EM, ramp.SM, ramp.TDDB, ramp.TC} {
			for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
				t, err := ramp.Figure5(res, suite, m)
				if err != nil {
					b.Fatal(err)
				}
				if err := t.RenderCSV(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Per-mechanism increases at 65nm (0.9V), the paper's §5.3 numbers.
	m0 := res.SuiteAverageMech(0, 0)
	var i09 int
	for ti, tech := range res.Techs {
		if tech.Name == "65nm (0.9V)" {
			i09 = ti
		}
	}
	m9 := res.SuiteAverageMech(i09, 0)
	for _, m := range []ramp.Mechanism{ramp.EM, ramp.SM, ramp.TDDB, ramp.TC} {
		b.ReportMetric(m9[m]/m0[m], fmt.Sprintf("x_%v_65nm0.9V", m))
	}
}

// BenchmarkHeadlineNumbers computes the paper's quoted summary numbers
// (§1.3/§5) and reports them as metrics for EXPERIMENTS.md.
func BenchmarkHeadlineNumbers(b *testing.B) {
	res := benchStudy(b)
	var h *ramp.Headline
	var err error
	for i := 0; i < b.N; i++ {
		h, err = ramp.ComputeHeadline(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.TempRiseK, "K_tempRise")
	b.ReportMetric(h.TotalIncreasePct["all"], "pct_totalIncrease")
	b.ReportMetric(h.TotalIncreasePct["SpecFP"], "pct_totalIncreaseFP")
	b.ReportMetric(h.TotalIncreasePct["SpecInt"], "pct_totalIncreaseINT")
	b.ReportMetric(h.WorstVsHighestPct[0], "pct_worstVsHighest180")
	b.ReportMetric(h.WorstVsHighestPct[1], "pct_worstVsHighest65")
	b.ReportMetric(h.WorstVsAveragePct[0], "pct_worstVsAvg180")
	b.ReportMetric(h.WorstVsAveragePct[1], "pct_worstVsAvg65")
	b.ReportMetric(h.FITRange[0], "FITrange_180nm")
	b.ReportMetric(h.FITRange[2], "FITrange_65nm1.0V")
}
