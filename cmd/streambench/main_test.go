package main

import (
	"bytes"
	"strings"
	"testing"

	"streamgnn/internal/bench"
)

func TestRunTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "1", "-runs", "1", "-steps", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	rows := map[[3]string]int{} // dataset, model, method -> rows written
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 {
			rows[[3]string{f[0], f[1], f[2]}]++
		}
	}
	for _, cell := range bench.TableICells() {
		for _, strat := range bench.Strategies() {
			if n := rows[[3]string{cell[0], cell[1], strat.String()}]; n != 1 {
				t.Errorf("%s/%s/%s: %d rows, want 1\n%s", cell[0], cell[1], strat, n, buf.String())
			}
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "9"}, &buf); err == nil {
		t.Fatalf("-table 9 accepted; wrote:\n%s", buf.String())
	}
}
