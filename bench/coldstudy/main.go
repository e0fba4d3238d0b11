// Command coldstudy benchmarks the cold study path across fidelity modes:
// the same application × technology sweep runs uncached in exact and phase
// fidelity, recording wall-clock latency, phase mode's speedup over exact,
// and the per-cell SOFR-MTTF deviation phase mode introduces.
// This is the end-to-end gate for the fidelity framework — phase mode must
// buy its speedup without drifting past the documented accuracy bound.
//
// With -check the process exits non-zero when phase mode misses the
// -min-speedup floor or exceeds the -max-dev deviation bound, or (if
// -max-exact-ns is set) the exact path's per-instruction cost exceeds the
// ceiling — a coarse, hardware-tolerant latency regression gate for CI.
//
// Usage: coldstudy [-n 2000000] [-apps 4] [-out BENCH_coldstudy.json]
//
//	[-check] [-min-speedup 5] [-max-dev 0.01] [-max-exact-ns 0]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	ramp "github.com/ramp-sim/ramp"
)

type modeResult struct {
	Mode    string  `json:"mode"`
	Seconds float64 `json:"seconds"`
	// NsPerInstr is seconds normalised by total simulated-trace length
	// (apps × instructions), a hardware-portable cost figure.
	NsPerInstr float64 `json:"ns_per_instr"`
	Speedup    float64 `json:"speedup_vs_exact"`
	// MaxMTTFDevPct is the worst per-cell SOFR-MTTF deviation from the
	// exact study, in percent, across the full app × tech grid.
	MaxMTTFDevPct  float64 `json:"max_mttf_dev_pct"`
	MeanMTTFDevPct float64 `json:"mean_mttf_dev_pct"`
	// MaxWorstCaseDevPct covers the §5.2 worst-case (max-statistics)
	// entries, which are intrinsically softer under sampling.
	MaxWorstCaseDevPct float64 `json:"max_worstcase_dev_pct"`
	WorstCell          string  `json:"worst_cell,omitempty"`
}

type result struct {
	Instructions int64        `json:"instructions"`
	Apps         int          `json:"apps"`
	Techs        int          `json:"techs"`
	Modes        []modeResult `json:"modes"`
	PhaseSpeedup float64      `json:"phase_speedup"`
	PhaseMaxDev  float64      `json:"phase_max_mttf_dev_pct"`
}

func main() {
	n := flag.Int64("n", 2_000_000, "instructions per application")
	apps := flag.Int("apps", 4, "number of benchmark profiles")
	out := flag.String("out", "BENCH_coldstudy.json", "output JSON path")
	check := flag.Bool("check", false, "exit non-zero on threshold violations")
	minSpeedup := flag.Float64("min-speedup", 5, "with -check: minimum phase-mode cold speedup")
	maxDev := flag.Float64("max-dev", 0.01, "with -check: maximum per-cell SOFR-MTTF deviation (fraction)")
	maxExactNs := flag.Float64("max-exact-ns", 0, "with -check: ceiling on exact-mode ns/instruction (0 disables)")
	flag.Parse()
	if err := run(*n, *apps, *out, *check, *minSpeedup, *maxDev, *maxExactNs); err != nil {
		fmt.Fprintln(os.Stderr, "coldstudy:", err)
		os.Exit(1)
	}
}

func run(n int64, apps int, out string, check bool, minSpeedup, maxDev, maxExactNs float64) error {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = n
	profiles := ramp.Profiles()
	if apps > 0 && apps < len(profiles) {
		profiles = profiles[:apps]
	}
	techs := ramp.Technologies()

	// No cache: every run is a cold study, which is the latency this
	// benchmark exists to measure.
	runner, err := ramp.New()
	if err != nil {
		return err
	}
	ctx := context.Background()

	study := func(fd *ramp.Fidelity) (*ramp.StudyResult, float64, error) {
		c := cfg
		c.Fidelity = fd
		start := time.Now()
		res, err := runner.Study(ctx, c, profiles, techs)
		return res, time.Since(start).Seconds(), err
	}

	fmt.Printf("cold study: %d apps × %d techs, %d instructions\n",
		len(profiles), len(techs), n)
	exact, exactS, err := study(nil)
	if err != nil {
		return err
	}
	totalInstr := float64(n) * float64(len(profiles))
	res := result{Instructions: n, Apps: len(profiles), Techs: len(techs)}
	res.Modes = append(res.Modes, modeResult{
		Mode: "exact", Seconds: exactS,
		NsPerInstr: exactS * 1e9 / totalInstr, Speedup: 1,
	})
	fmt.Printf("exact    %.3fs  (%.0f ns/instr)\n", exactS, exactS*1e9/totalInstr)

	got, secs, err := study(&ramp.Fidelity{Mode: ramp.FidelityPhase})
	if err != nil {
		return fmt.Errorf("%s: %w", ramp.FidelityPhase, err)
	}
	m := modeResult{
		Mode: string(ramp.FidelityPhase), Seconds: secs,
		NsPerInstr: secs * 1e9 / totalInstr,
		Speedup:    exactS / secs,
	}
	var sum float64
	for i := range exact.Apps {
		em := exact.FIT(exact.Apps[i]).MTTFYears()
		gm := got.FIT(got.Apps[i]).MTTFYears()
		dev := math.Abs(gm-em) / em
		sum += dev
		if p := dev * 100; p > m.MaxMTTFDevPct {
			m.MaxMTTFDevPct = p
			m.WorstCell = exact.Apps[i].App + "@" + exact.Apps[i].Tech.Name
		}
	}
	m.MeanMTTFDevPct = 100 * sum / float64(len(exact.Apps))
	for i := range exact.Worst {
		em := exact.WorstFIT(i).MTTFYears()
		gm := got.WorstFIT(i).MTTFYears()
		if p := 100 * math.Abs(gm-em) / em; p > m.MaxWorstCaseDevPct {
			m.MaxWorstCaseDevPct = p
		}
	}
	res.Modes = append(res.Modes, m)
	res.PhaseSpeedup = m.Speedup
	res.PhaseMaxDev = m.MaxMTTFDevPct
	fmt.Printf("%-8s %.3fs  (%.1fx, max dev %.3f%% at %s)\n",
		m.Mode, secs, m.Speedup, m.MaxMTTFDevPct, m.WorstCell)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("phase speedup %.1fx, max SOFR-MTTF deviation %.3f%% → %s\n",
		res.PhaseSpeedup, res.PhaseMaxDev, out)

	if check {
		var failed bool
		if res.PhaseSpeedup < minSpeedup {
			fmt.Fprintf(os.Stderr, "FAIL: phase speedup %.2fx below %.2fx floor\n",
				res.PhaseSpeedup, minSpeedup)
			failed = true
		}
		if res.PhaseMaxDev > maxDev*100 {
			fmt.Fprintf(os.Stderr, "FAIL: phase max SOFR-MTTF deviation %.3f%% exceeds %.3f%% bound\n",
				res.PhaseMaxDev, maxDev*100)
			failed = true
		}
		if maxExactNs > 0 && res.Modes[0].NsPerInstr > maxExactNs {
			fmt.Fprintf(os.Stderr, "FAIL: exact cost %.0f ns/instr exceeds %.0f ceiling\n",
				res.Modes[0].NsPerInstr, maxExactNs)
			failed = true
		}
		if failed {
			return fmt.Errorf("threshold check failed")
		}
		fmt.Println("threshold check passed")
	}
	return nil
}
