// Sensitivity: quantifies the paper's Table 1 — how strongly each failure
// mechanism responds to temperature, voltage, and feature size — and then
// sweeps the two calibrated scaling constants (EM geometry exponent, TDDB
// oxide-thinning decade) to show how the 65nm failure-rate projection
// depends on them. This is the ablation story of EXPERIMENTS.md as a
// runnable program.
package main

import (
	"context"
	"fmt"
	"os"

	ramp "github.com/ramp-sim/ramp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensitivity:", err)
		os.Exit(1)
	}
}

func run() error {
	params := ramp.DefaultConfig().RAMP

	// Part 1: the quantified Table 1 at a typical operating temperature.
	t1, err := ramp.Table1Quantified(params, 355)
	if err != nil {
		return err
	}
	if err := t1.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	// Part 2: scaling-constant sweeps on a small suite.
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 200_000
	var profiles []ramp.Profile
	for _, name := range []string{"ammp", "gzip", "crafty"} {
		p, err := ramp.ProfileByName(name)
		if err != nil {
			return err
		}
		profiles = append(profiles, p)
	}
	techs := []ramp.Technology{ramp.BaseTechnology()}
	t65, err := ramp.TechnologyByName("65nm (1.0V)")
	if err != nil {
		return err
	}
	techs = append(techs, t65)

	sweep := &ramp.Table{
		Title:  "Scaling-constant sensitivity: 65nm(1.0V)/180nm suite-average FIT ratio",
		Header: []string{"variant", "EM x", "TDDB x", "total x"},
	}
	variants := []struct {
		label string
		tune  func(*ramp.Config)
	}{
		{"defaults (calibrated)", func(c *ramp.Config) {}},
		{"EM geometry off", func(c *ramp.Config) { c.RAMP.EM.GeomExponent = 0 }},
		{"EM geometry paper-literal (κ²)", func(c *ramp.Config) { c.RAMP.EM.GeomExponent = 2.0 }},
		{"TDDB tox factor off", func(c *ramp.Config) { c.RAMP.TDDB.ToxDecadeNm = 1e9 }},
		{"TDDB voltage benefit off", func(c *ramp.Config) { c.RAMP.TDDB.VoltExponent = 0 }},
	}
	runner, err := ramp.New()
	if err != nil {
		return err
	}
	for _, v := range variants {
		vcfg := cfg
		v.tune(&vcfg)
		res, err := runner.Study(context.Background(), vcfg, profiles, techs)
		if err != nil {
			return err
		}
		m0 := res.SuiteAverageMech(0, 0)
		m1 := res.SuiteAverageMech(1, 0)
		if err := sweep.AddRow(v.label,
			fmt.Sprintf("%.2f", m1[ramp.EM]/m0[ramp.EM]),
			fmt.Sprintf("%.2f", m1[ramp.TDDB]/m0[ramp.TDDB]),
			fmt.Sprintf("%.2f", res.SuiteAverageFIT(1, 0)/res.SuiteAverageFIT(0, 0))); err != nil {
			return err
		}
	}
	return sweep.Render(os.Stdout)
}
