// Command ramptable prints the paper's tables. Tables 1 and 2 are static
// model descriptions; Tables 3 and 4 require a study run and accept -n to
// size it.
//
// Usage:
//
//	ramptable -table 1|2|3|4 [-n instructions] [-csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	ramp "github.com/ramp-sim/ramp"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ramptable:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("ramptable", flag.ContinueOnError)
	fs.SetOutput(out)
	table := fs.Int("table", 0, "table number to print (1-4)")
	instructions := fs.Int64("n", 2_000_000, "instructions per application (tables 3 and 4)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var t *ramp.Table
	switch *table {
	case 1:
		t = ramp.Table1()
	case 2:
		t = ramp.Table2(ramp.DefaultConfig().Machine)
	case 3, 4:
		cfg := ramp.DefaultConfig()
		cfg.Instructions = *instructions
		techs := ramp.Technologies()
		if *table == 3 {
			// Table 3 only needs the 180nm point.
			techs = techs[:1]
		}
		runner, err := ramp.New()
		if err != nil {
			return err
		}
		res, err := runner.Study(context.Background(), cfg, ramp.Profiles(), techs)
		if err != nil {
			return err
		}
		if *table == 3 {
			t, err = ramp.Table3(res)
		} else {
			t, err = ramp.Table4(res)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("pick a table with -table 1|2|3|4")
	}
	if *csv {
		return t.RenderCSV(out)
	}
	return t.Render(out)
}
