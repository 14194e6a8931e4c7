package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"streamgnn/benchmarks/internal/kit"
)

// runLedger measures sets of runs the way the driver does: every run is a
// fresh process of this binary on one workload, runs go round-robin over the
// workloads so that drift of the host hits all of them alike, and every run
// of a set has another seed. The result file holds every run; ../cmp turns
// two of them (or the two sets of one) into verdicts.
func runLedger(sets, runs int, firstSeed int64, seconds float64, withTrace bool, outDir, jsonPath string) error {
	if jsonPath == "" {
		return fmt.Errorf("-ledger needs -json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := kit.File{Meta: kit.Meta{NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seconds: int(seconds), FirstSeed: firstSeed, Runs: runs, Sets: sets}}
	one := func(set int, sp *spec, seed int64, trace int) error {
		args := []string{"--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
		if trace == 1 && outDir != "" {
			args = append(args, "-out", outDir)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", sp.name, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		run := kit.Run{Workload: sp.name, Seed: seed, Set: set, Trace: trace}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
			return fmt.Errorf("%s seed %d: last line is not a result: %w", sp.name, seed, err)
		}
		file.Runs = append(file.Runs, run)
		fmt.Fprintf(logw, "set %d %-16s seed %-3d trace %d  correct=%v failed=%d/%d\n",
			set, sp.name, seed, trace, run.Correct, run.Failed, run.Attempted)
		// Store after every run, so an interrupted ledger keeps what it has.
		return file.WriteFile(jsonPath)
	}
	for set := 1; set <= sets; set++ {
		for r := 0; r < runs; r++ {
			for i := range specs {
				if err := one(set, &specs[i], firstSeed+int64(r), 0); err != nil {
					return err
				}
			}
		}
		if withTrace && set == 1 {
			for i := range specs {
				if err := one(set, &specs[i], firstSeed, 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
