package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// printConstants runs the full default study and prints the solved
// qualification constants for embedding as the reference calibration.
func printConstants(n int64) error {
	cfg := sim.DefaultConfig()
	cfg.Instructions = n
	res, err := sim.RunStudyContext(context.Background(), cfg, workload.Profiles(),
		scaling.Generations()[:1], sim.StudyOptions{})
	if err != nil {
		return err
	}
	for m, k := range res.Constants.K {
		fmt.Printf("K[%d] = %.6e\n", m, k)
	}
	// Also per-app power scales for reference.
	for _, a := range res.AppsAt(0) {
		fmt.Printf("appScale %-9s = %.4f  (power %.2fW)\n", a.App, a.AppPowerScale, a.AvgTotalW)
	}
	return nil
}

func maybePrintConstants() (bool, error) {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	constants := fs.Bool("constants", false, "print reference qualification constants")
	n := fs.Int64("n", 2_000_000, "instructions per app")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return false, err
	}
	if !*constants {
		return false, nil
	}
	return true, printConstants(*n)
}
