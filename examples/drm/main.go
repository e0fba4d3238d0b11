// DRM: a dynamic-reliability-management what-if at 65nm, the
// application-aware approach the paper's conclusions motivate (§5.2,
// citing Srinivasan et al. [15]). Reliability is qualified for the
// *expected* workload rather than the worst case; cool applications can
// then run at a higher voltage/frequency operating point while staying
// inside the same FIT budget.
//
// The example sweeps the 65nm supply voltage (with frequency tracking
// voltage) for a cool and a hot benchmark and reports the highest
// operating point each can sustain within a 4x-base FIT budget.
package main

import (
	"context"
	"fmt"
	"os"

	ramp "github.com/ramp-sim/ramp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drm:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 400_000

	// Qualification study: the suite at 180nm and 65nm (1.0V) fixes the
	// proportionality constants and the FIT budget.
	var profiles []ramp.Profile
	for _, name := range []string{"ammp", "vpr", "mesa", "crafty"} {
		p, err := ramp.ProfileByName(name)
		if err != nil {
			return err
		}
		profiles = append(profiles, p)
	}
	techs := ramp.Technologies()
	runner, err := ramp.New()
	if err != nil {
		return err
	}
	res, err := runner.Study(context.Background(), cfg, profiles, techs)
	if err != nil {
		return err
	}
	// Budget: the suite-average FIT at the 65nm (1.0V) design point.
	i65 := len(techs) - 1
	budget := res.SuiteAverageFIT(i65, 0)
	fmt.Printf("FIT budget (suite average at %s): %.0f\n\n", techs[i65].Name, budget)

	base65, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		return err
	}
	for _, name := range []string{"ammp", "crafty"} {
		prof, err := ramp.ProfileByName(name)
		if err != nil {
			return err
		}
		tr, err := ramp.RunTiming(cfg, prof)
		if err != nil {
			return err
		}
		// Sink temperature target from the app's base run in the study.
		var sinkK, appScale float64
		for _, a := range res.AppsAt(0) {
			if a.App == name {
				sinkK, appScale = a.SinkTempK, a.AppPowerScale
			}
		}
		fmt.Printf("%s: voltage/frequency sweep at 65nm\n", name)
		best := -1.0
		for _, vdd := range []float64{0.90, 0.95, 1.00, 1.05, 1.10} {
			tech := base65
			tech.Name = fmt.Sprintf("65nm (%.2fV)", vdd)
			tech.VddV = vdd
			// Frequency tracks voltage around the 2.0GHz/1.0V point.
			tech.FreqGHz = 2.0 * vdd / 1.0
			run, err := ramp.EvaluateTech(cfg, tr, tech, sinkK, appScale)
			if err != nil {
				return err
			}
			fit := 0.0
			for m, k := range res.Constants.K {
				fit += run.RawFIT.ByMechanism()[m] * k
			}
			ok := fit <= budget
			mark := " over budget"
			if ok {
				mark = " OK"
				if tech.FreqGHz > best {
					best = tech.FreqGHz
				}
			}
			fmt.Printf("  %.2f V / %.2f GHz: FIT %6.0f  Tmax %.1f K %s\n",
				vdd, tech.FreqGHz, fit, run.MaxStructTempK, mark)
		}
		if best > 0 {
			fmt.Printf("  -> max sustainable frequency within budget: %.2f GHz\n\n", best)
		} else {
			fmt.Printf("  -> no swept operating point fits the budget\n\n")
		}
	}
	fmt.Println("Cool applications sustain a higher operating point than hot ones at")
	fmt.Println("the same FIT budget - the opportunity dynamic reliability management exploits.")
	fmt.Println()
	return runManaged(cfg, budget, res)
}

// runManaged demonstrates the closed-loop controller: the DVS ladder is
// walked at runtime so each application's cumulative FIT tracks the
// budget, instead of choosing one static point in advance.
func runManaged(cfg ramp.Config, budget float64, res *ramp.StudyResult) error {
	tech65, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		return err
	}
	pol := ramp.DRMPolicy{
		Ladder:         ramp.DefaultLadder(tech65),
		BudgetFIT:      budget,
		EpochIntervals: 50,
		Headroom:       0.9,
		StartLevel:     2,
	}
	fmt.Println("Closed-loop DRM at 65nm (1.0V), same FIT budget:")
	for _, name := range []string{"ammp", "crafty"} {
		prof, err := ramp.ProfileByName(name)
		if err != nil {
			return err
		}
		tr, err := ramp.RunTiming(cfg, prof)
		if err != nil {
			return err
		}
		var sinkK, appScale float64
		for _, a := range res.AppsAt(0) {
			if a.App == name {
				sinkK, appScale = a.SinkTempK, a.AppPowerScale
			}
		}
		mr, err := ramp.RunDRM(cfg, tr, tech65, res.Constants, pol, sinkK, appScale)
		if err != nil {
			return err
		}
		met := "met"
		if !mr.MetBudget {
			met = "MISSED"
		}
		fmt.Printf("  %-8s avg freq %.2f GHz  avg FIT %6.0f (budget %s)  switches %d  Tmax %.1f K\n",
			name, mr.AvgFreqGHz, mr.AvgFIT, met, mr.Switches, mr.MaxStructTempK)
	}
	return nil
}
