package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI study run is slow; skipped with -short")
	}
	var sb strings.Builder
	err := run(&sb, []string{"-n", "100000", "-apps", "ammp,crafty"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== 180nm ==", "== 65nm (1.0V) ==", "ammp", "crafty",
		"max (worst-case)", "suite-avg FIT"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestRunFigureAndHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI study run is slow; skipped with -short")
	}
	var sb strings.Builder
	if err := run(&sb, []string{"-n", "100000", "-apps", "ammp,crafty", "-figure", "4"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "TDDB") {
		t.Error("figure 4 output missing mechanism rows")
	}
	sb.Reset()
	if err := run(&sb, []string{"-n", "100000", "-apps", "ammp,crafty", "-headline"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "316%") {
		t.Error("headline output missing paper reference values")
	}
}

func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI study run is slow; skipped with -short")
	}
	var sb strings.Builder
	if err := run(&sb, []string{"-n", "100000", "-apps", "ammp", "-json"}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if doc["schema"] != float64(1) {
		t.Errorf("schema = %v", doc["schema"])
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-apps", "nonexistent"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(&sb, []string{"-bogusflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// A mode outside exact/phase fails before the study runs.
	var out strings.Builder
	err := run(&out, []string{"-n", "1000", "-apps", "gzip", "-fidelity", "adaptive"})
	if err == nil || !strings.Contains(err.Error(), "exact") || !strings.Contains(err.Error(), "phase") {
		t.Errorf("-fidelity adaptive: err = %v, want one naming exact and phase", err)
	}
	if out.Len() != 0 {
		t.Errorf("-fidelity adaptive: study ran: %q", out.String())
	}
}

func TestSelectProfiles(t *testing.T) {
	all, err := selectProfiles("")
	if err != nil || len(all) != 16 {
		t.Fatalf("default selection: %d profiles, err %v", len(all), err)
	}
	two, err := selectProfiles(" gzip , gcc ")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "gzip" || two[1].Name != "gcc" {
		t.Fatalf("subset selection wrong: %+v", two)
	}
}

func TestRunScenarioFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI study run is slow; skipped with -short")
	}
	var sb strings.Builder
	err := run(&sb, []string{"-scenario", "../../scenarios/quick-look.json"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scenario: quick-look") {
		t.Error("scenario banner missing")
	}
	if !strings.Contains(out, "== 65nm (1.0V) ==") {
		t.Error("scenario technologies not honoured")
	}
	if strings.Contains(out, "== 130nm ==") {
		t.Error("scenario should exclude 130nm")
	}
	if err := run(&sb, []string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing scenario file accepted")
	}
}

func TestRunTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI study run is slow; skipped with -short")
	}
	path := filepath.Join(t.TempDir(), "study.trace.json")
	var sb strings.Builder
	if err := run(&sb, []string{"-n", "50000", "-apps", "ammp", "-trace-out", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file empty or missing displayTimeUnit: %d events", len(doc.TraceEvents))
	}
	cells := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "sim.cell" {
			cells++
			if ev.Args["source"] == "" {
				t.Errorf("cell span without source attr: %v", ev.Args)
			}
		}
	}
	// One app across the five Table 4 technology points.
	if cells != 5 {
		t.Errorf("cell spans = %d, want 5", cells)
	}
}

func TestRunRejectsBadLogFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-log-level", "loud"}); err == nil {
		t.Error("bad -log-level accepted")
	}
	if err := run(&sb, []string{"-log-format", "yaml"}); err == nil {
		t.Error("bad -log-format accepted")
	}
}
