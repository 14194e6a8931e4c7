// Command streambench regenerates the paper's evaluation tables:
//
//	streambench -table 1 [-runs 10]   # Table I  (event monitoring)
//	streambench -table 2 [-runs 10]   # Table II (link prediction)
//	streambench -table 3 [-runs 10]   # Table III (parameter study)
//	streambench -scaling              # full vs KDE cost as the Taxi stream grows
//
// Use -steps and -scale to trade fidelity for speed. Per-mechanism and
// serving numbers come from the end-to-end ledger (benchmarks/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"streamgnn/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streambench:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected table or study to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("streambench", flag.ContinueOnError)
	table := fs.Int("table", 1, "which table to reproduce (1, 2 or 3)")
	scaling := fs.Bool("scaling", false, "run the scaling study instead of a table")
	runs := fs.Int("runs", 10, "repetitions per cell (the paper uses 10)")
	steps := fs.Int("steps", 40, "stream steps per run")
	scale := fs.Float64("scale", 1, "workload scale factor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scaling {
		fmt.Fprintf(w, "SCALING STUDY: full vs KDE training cost as the Taxi stream grows (%d steps)\n\n", *steps)
		pts, err := bench.RunScaling([]float64{0.5, 1, 2, 4}, *steps, 1)
		if err != nil {
			return err
		}
		bench.WriteScaling(w, pts)
		return nil
	}
	switch *table {
	case 1:
		fmt.Fprintf(w, "TABLE I: event monitoring workloads (%d runs/cell, %d steps)\n\n", *runs, *steps)
		return bench.RunTable(w, bench.TableICells(), *runs, *steps, *scale, false)
	case 2:
		fmt.Fprintf(w, "TABLE II: link prediction workloads (%d runs/cell, %d steps)\n\n", *runs, *steps)
		return bench.RunTable(w, bench.TableIICells(), *runs, *steps, *scale, true)
	case 3:
		fmt.Fprintf(w, "TABLE III: parameter study (%d runs/cell, %d steps, KDE method)\n\n", *runs, *steps)
		for _, spec := range bench.TableIIISweeps() {
			fmt.Fprintf(w, "-- sweep %s on %s (%s) --\n", spec.Label, spec.Dataset, spec.Model)
			if err := bench.RunSweep(w, spec, *runs, *steps, *scale); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown table %d", *table)
	}
}
