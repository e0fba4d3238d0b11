package report

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// smallStudy runs a 2-app, 3-tech study once for all report tests.
var _smallStudy *sim.StudyResult

func smallStudy(t *testing.T) *sim.StudyResult {
	t.Helper()
	if _smallStudy != nil {
		return _smallStudy
	}
	cfg := sim.DefaultConfig()
	cfg.Instructions = 150_000
	var profiles []workload.Profile
	for _, name := range []string{"ammp", "crafty"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	gens := scaling.Generations()
	techs := []scaling.Technology{gens[0], gens[3], gens[4]}
	res, err := sim.RunStudyContext(context.Background(), cfg, profiles, techs, sim.StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_smallStudy = res
	return res
}

func TestTableAddRowWidthMismatch(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	if err := tab.AddRow("only-one"); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tab.AddRow("x", "y"); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"name", "value"}}
	if err := tab.AddRow("alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("b", "22222"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "name", "alpha", "22222", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{Header: []string{"name", "note"}}
	if err := tab.AddRow("a", `says "hi", twice`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,note\na,\"says \"\"hi\"\", twice\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
	if got := Pct(4.16); got != "+316%" {
		t.Errorf("Pct(4.16) = %q, want +316%%", got)
	}
	if got := Pct(0.8); got != "-20%" {
		t.Errorf("Pct(0.8) = %q, want -20%%", got)
	}
}

func TestTable1Static(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4 mechanisms", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{"EM", "SM", "TDDB", "TC"} {
		if !strings.Contains(sb.String(), mech) {
			t.Errorf("Table 1 missing %s", mech)
		}
	}
}

func TestTable1Quantified(t *testing.T) {
	tab, err := Table1Quantified(core.DefaultParams(), 355)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// EM row: temperature multiplier above 1, feature-size factor above 1.
	if tab.Rows[0][0] != "EM" {
		t.Fatalf("first row = %q", tab.Rows[0][0])
	}
	for _, row := range tab.Rows {
		if row[1] <= "1" && row[1] != "-" {
			t.Errorf("%s: temperature multiplier %q not above 1", row[0], row[1])
		}
	}
	// Only TDDB has voltage and both EM and TDDB have feature-size entries.
	if tab.Rows[1][2] != "-" || tab.Rows[3][2] != "-" {
		t.Error("SM/TC should have no voltage entry")
	}
	if tab.Rows[0][3] == "-" || tab.Rows[2][3] == "-" {
		t.Error("EM/TDDB need feature-size entries")
	}
}

func TestTable2(t *testing.T) {
	tab := Table2(microarch.DefaultConfig())
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1.1 GHz", "81 mm²", "150", "32KB/32KB/2MB", "2/20/102"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 2 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTable3And4FromStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	res := smallStudy(t)
	t3, err := Table3(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 2 {
		t.Fatalf("Table 3 rows = %d, want 2 apps", len(t3.Rows))
	}
	t4, err := Table4(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != len(res.Techs) {
		t.Fatalf("Table 4 rows = %d, want %d", len(t4.Rows), len(res.Techs))
	}
	// Relative power density of the base row is 1.00 by construction.
	if t4.Rows[0][len(t4.Header)-1] != "1.00" {
		t.Errorf("base relative power density = %s, want 1.00", t4.Rows[0][len(t4.Header)-1])
	}
}

func TestFiguresFromStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	res := smallStudy(t)

	f2, err := Figure2(res, workload.SuiteFP)
	if err != nil {
		t.Fatal(err)
	}
	// 1 FP app (ammp) + sink row.
	if len(f2.Rows) != 2 {
		t.Fatalf("Figure 2 rows = %d, want 2", len(f2.Rows))
	}
	for _, row := range f2.Rows {
		if len(row) != len(res.Techs)+1 {
			t.Fatalf("Figure 2 row width = %d, want %d", len(row), len(res.Techs)+1)
		}
	}

	f3, err := Figure3(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps + max row.
	if len(f3.Rows) != 3 {
		t.Fatalf("Figure 3 rows = %d, want 3", len(f3.Rows))
	}
	if f3.Rows[2][0] != "max (worst-case)" {
		t.Fatalf("Figure 3 last row = %q, want worst-case", f3.Rows[2][0])
	}

	f4, err := Figure4(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 mechanisms + total.
	if len(f4.Rows) != core.NumMechanisms+1 {
		t.Fatalf("Figure 4 rows = %d", len(f4.Rows))
	}

	f5, err := Figure5(res, workload.SuiteInt, core.TDDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != 2 { // crafty + max
		t.Fatalf("Figure 5 rows = %d, want 2", len(f5.Rows))
	}
}

func TestHeadlineFromStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	res := smallStudy(t)
	h, err := ComputeHeadline(res)
	if err != nil {
		t.Fatal(err)
	}
	if h.TempRiseK <= 0 {
		t.Errorf("temperature rise %.1f K must be positive", h.TempRiseK)
	}
	if h.TotalIncreasePct["all"] <= 0 {
		t.Errorf("total FIT increase %.0f%% must be positive", h.TotalIncreasePct["all"])
	}
	for _, m := range core.Mechanisms() {
		inc := h.MechIncreasePct[m]
		if inc[1] <= 0 {
			t.Errorf("%v increase at 65nm(1.0V) = %.0f%%, want positive", m, inc[1])
		}
	}
	// TDDB must show the largest increase at 65nm (1.0V) — the paper's
	// central per-mechanism finding.
	tddb := h.MechIncreasePct[core.TDDB][1]
	for _, m := range []core.Mechanism{core.SM, core.TC} {
		if h.MechIncreasePct[m][1] >= tddb {
			t.Errorf("%v increase %.0f%% not below TDDB %.0f%%", m, h.MechIncreasePct[m][1], tddb)
		}
	}
	tab := h.Render()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "316%") {
		t.Error("headline table must quote the paper's 316% reference")
	}
}

func TestStructureBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	res := smallStudy(t)
	tab, err := StructureBreakdown(res, 0, "crafty")
	if err != nil {
		t.Fatal(err)
	}
	// 7 structures + total row.
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	if tab.Rows[7][0] != "total" {
		t.Fatalf("last row = %q, want total", tab.Rows[7][0])
	}
	if _, err := StructureBreakdown(res, 0, "nonexistent"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestMechanismCurves(t *testing.T) {
	tab, err := MechanismCurves(core.DefaultParams(), scaling.Base(), []float64{340, 360, 380})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Header) != 4 {
		t.Fatalf("shape: %d rows × %d cols", len(tab.Rows), len(tab.Header))
	}
	// Normalisation: every first value is 1.00, later ones grow.
	for _, row := range tab.Rows {
		if row[1] != "1.00" {
			t.Errorf("%s not normalised: %v", row[0], row[1])
		}
		mid, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if !(1 < mid && mid < hi) {
			t.Errorf("%s not growing: %v", row[0], row)
		}
	}
	if _, err := MechanismCurves(core.DefaultParams(), scaling.Base(), []float64{350}); err == nil {
		t.Error("single-temperature sweep accepted")
	}
}

func TestHeadlineRequiresKeyTechs(t *testing.T) {
	res := &sim.StudyResult{Techs: scaling.Generations()[:2]}
	if _, err := ComputeHeadline(res); err == nil {
		t.Fatal("headline without 65nm points accepted")
	}
}
