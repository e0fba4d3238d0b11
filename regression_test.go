package ramp_test

import (
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

// TestPaperShapeRegression is the repository's reproduction contract: a
// full-suite study must keep producing the paper's qualitative results
// (DESIGN.md §4 "shape targets"). Bounds are deliberately loose — they
// guard the science, not the third digit.
func TestPaperShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite study is slow; skipped with -short")
	}
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 300_000
	res, err := runDefaultStudy(cfg, ramp.Profiles(), ramp.Technologies())
	if err != nil {
		t.Fatal(err)
	}
	h, err := ramp.ComputeHeadline(res)
	if err != nil {
		t.Fatal(err)
	}

	// Headline: total FIT increase at 65nm (1.0V) near the paper's 316%.
	if inc := h.TotalIncreasePct["all"]; inc < 200 || inc > 450 {
		t.Errorf("total FIT increase = %.0f%%, want within [200, 450] around the paper's 316%%", inc)
	}
	// Temperature rise toward the paper's 15 K.
	if h.TempRiseK < 7 || h.TempRiseK > 22 {
		t.Errorf("max-temp rise = %.1f K, want within [7, 22] around the paper's 15 K", h.TempRiseK)
	}

	// Mechanism ordering at 65nm (1.0V): TDDB steepest, then EM, with SM
	// and TC far behind (§5.3, Conclusions).
	tddb := h.MechIncreasePct[ramp.TDDB][1]
	em := h.MechIncreasePct[ramp.EM][1]
	sm := h.MechIncreasePct[ramp.SM][1]
	tc := h.MechIncreasePct[ramp.TC][1]
	if !(tddb > em && em > sm && em > tc) {
		t.Errorf("mechanism ordering broken: TDDB %.0f%% EM %.0f%% SM %.0f%% TC %.0f%%",
			tddb, em, sm, tc)
	}
	if tddb < 400 {
		t.Errorf("TDDB increase = %.0f%%, implausibly small vs the paper's 667-812%%", tddb)
	}
	if sm > 200 || tc > 200 {
		t.Errorf("SM/TC increases (%.0f%%, %.0f%%) should stay far below EM/TDDB", sm, tc)
	}

	// The voltage split: 65nm (1.0V) must be far worse than 65nm (0.9V)
	// (§5.2 "maintaining a constant voltage from 90nm to 65nm leads to a
	// large rise in FIT values").
	var i09, i10 int
	for ti, tech := range res.Techs {
		switch tech.Name {
		case "65nm (0.9V)":
			i09 = ti
		case "65nm (1.0V)":
			i10 = ti
		}
	}
	f09, f10 := res.SuiteAverageFIT(i09, 0), res.SuiteAverageFIT(i10, 0)
	if f10 < 1.4*f09 {
		t.Errorf("65nm voltage split too small: 1.0V %.0f vs 0.9V %.0f", f10, f09)
	}

	// Monotone growth of the suite average across the five points.
	prev := 0.0
	for ti := range res.Techs {
		avg := res.SuiteAverageFIT(ti, 0)
		if avg <= prev {
			t.Errorf("suite-average FIT not monotone at %s: %.0f after %.0f",
				res.Techs[ti].Name, avg, prev)
		}
		prev = avg
	}

	// SpecInt hotter and less reliable than SpecFP at every point (§5.2).
	for ti := range res.Techs {
		fp := res.SuiteAverageFIT(ti, ramp.SuiteFP)
		intg := res.SuiteAverageFIT(ti, ramp.SuiteInt)
		if intg <= fp {
			t.Errorf("%s: SpecInt avg FIT %.0f not above SpecFP %.0f",
				res.Techs[ti].Name, intg, fp)
		}
	}

	// Worst-case pessimism grows with scaling (§5.2).
	if h.WorstVsAveragePct[1] <= h.WorstVsAveragePct[0] {
		t.Errorf("worst-vs-average gap must widen: %.0f%% → %.0f%%",
			h.WorstVsAveragePct[0], h.WorstVsAveragePct[1])
	}
	if h.WorstVsHighestPct[1] <= h.WorstVsHighestPct[0] {
		t.Errorf("worst-vs-highest gap must widen: %.0f%% → %.0f%%",
			h.WorstVsHighestPct[0], h.WorstVsHighestPct[1])
	}

	// Application FIT spread grows with scaling (§5.2).
	if !(h.FITRange[0] < h.FITRange[1] && h.FITRange[1] < h.FITRange[2]) {
		t.Errorf("FIT ranges must widen: %v", h.FITRange)
	}

	// Qualification invariant: 180nm suite average is 4×1000 FIT.
	if avg := res.SuiteAverageFIT(0, 0); avg < 3999 || avg > 4001 {
		t.Errorf("180nm suite average = %.1f FIT, want 4000 (§4.4)", avg)
	}
}
