package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"streamgnn/tools/streamlint/internal/analysistest"
	"streamgnn/tools/streamlint/internal/checks/atomalign"
	"streamgnn/tools/streamlint/internal/checks/atommix"
	"streamgnn/tools/streamlint/internal/checks/ckptstate"
	"streamgnn/tools/streamlint/internal/checks/detorder"
	"streamgnn/tools/streamlint/internal/checks/lockfree"
	"streamgnn/tools/streamlint/internal/checks/poolsafe"
	"streamgnn/tools/streamlint/internal/checks/snapimmut"
)

var fixtureRoot = filepath.Join("testdata", "src")

func TestDetOrderFixtures(t *testing.T) {
	analysistest.Run(t, fixtureRoot, detorder.Analyzer, "detorder/a")
}

func TestDetOrderBatchQueryScope(t *testing.T) {
	// internal/query (home of the batched serving path) is inside the
	// determinism scope: pending-batch maps must be collected then sorted.
	analysistest.Run(t, fixtureRoot, detorder.Analyzer, "streamgnn/internal/query")
}

func TestDetOrderScopedOut(t *testing.T) {
	// A package outside the determinism scope (the fixture sits at
	// internal/bench, a path the tree no longer uses) stays silent on the
	// same constructs that fire in detorder/a.
	analysistest.Run(t, fixtureRoot, detorder.Analyzer, "streamgnn/internal/bench")
}

func TestPoolSafeFixtures(t *testing.T) {
	analysistest.Run(t, fixtureRoot, poolsafe.Analyzer, "poolsafe/a")
}

func TestCkptStateFixtures(t *testing.T) {
	analysistest.Run(t, fixtureRoot, ckptstate.Analyzer, "ckptstate/a")
}

func TestAtomAlignFixtures(t *testing.T) {
	analysistest.Run(t, fixtureRoot, atomalign.Analyzer, "atomalign/a")
}

func TestLockfreeFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureRoot, lockfree.Analyzer, "lockfree/a")
}

func TestSnapImmutFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureRoot, snapimmut.Analyzer, "snapimmut/a")
}

func TestAtomMixFixtures(t *testing.T) {
	// atommix/a plainly reads a counter its dependency atommix/b writes
	// atomically; loading a's program pulls b in, and the cross-package mix
	// is caught program-wide.
	analysistest.RunProgram(t, fixtureRoot, atommix.Analyzer, "atommix/a")
}

// buildTool compiles the streamlint binary once for the protocol tests.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "streamlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building streamlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneCleanTree is the acceptance gate: the suite must exit 0 over
// the repository's own packages.
func TestStandaloneCleanTree(t *testing.T) {
	bin := buildTool(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("streamlint over the tree: %v\n%s", err, out)
	}
}

// TestStandaloneFindsSeededViolation proves the standalone binary actually
// reports diagnostics (exit 2) on code that violates an invariant.
func TestStandaloneFindsSeededViolation(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	src := `package bad

func keys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`
	writeModule(t, dir, src)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 with findings, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "randomized iteration order") {
		t.Fatalf("missing detorder diagnostic:\n%s", out)
	}
}

// seededLockfree is a module that annotates a serving function lock-free
// and then reaches a mutex two calls down.
const seededLockfree = `package bad

import "sync"

var mu sync.Mutex

//streamlint:lockfree
func Serve() int {
	return helper()
}

func helper() int {
	mu.Lock()
	defer mu.Unlock()
	return 1
}
`

// TestStandaloneFindsSeededLockfreeViolation mirrors the CI self-test: a
// mutex acquisition behind a lockfree annotation must fail the run, and the
// diagnostic must spell out the whole call chain.
func TestStandaloneFindsSeededLockfreeViolation(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	writeModule(t, dir, seededLockfree)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 with findings, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "call chain: example.com/scratch.Serve -> example.com/scratch.helper -> (*sync.Mutex).Lock") {
		t.Fatalf("missing lockfree call chain:\n%s", out)
	}
}

// TestStandaloneFindsSeededAtomMixViolation seeds a plain read of an
// atomically written counter.
func TestStandaloneFindsSeededAtomMixViolation(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	writeModule(t, dir, `package bad

import "sync/atomic"

type stats struct{ ops int64 }

var s stats

func bump() { atomic.AddInt64(&s.ops, 1) }

func read() int64 { return s.ops }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 with findings, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "atommix") || !strings.Contains(string(out), "accessed atomically") {
		t.Fatalf("missing atommix diagnostic:\n%s", out)
	}
}

// TestStandaloneFindsSeededSnapImmutViolation seeds a Set on a published
// matrix.
func TestStandaloneFindsSeededSnapImmutViolation(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	writeModule(t, dir, `package bad

type Matrix struct{ Data []float64 }

func (m *Matrix) Set(i int, v float64) { m.Data[i] = v }

type store struct{ emb *Matrix }

func (s *store) Publish() *Matrix { return s.emb }

func corrupt(s *store) {
	m := s.Publish()
	m.Set(0, 1)
}
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 with findings, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "snapimmut") || !strings.Contains(string(out), "derived from Publish()") {
		t.Fatalf("missing snapimmut diagnostic:\n%s", out)
	}
}

// TestStandaloneJSON checks the -json satellite: stdout carries the sorted
// diagnostic array with the lockfree chain, machine-readable for CI diffs.
func TestStandaloneJSON(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	writeModule(t, dir, seededLockfree)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	stdout, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 with findings, got err=%v\n%s", err, stdout)
	}
	var diags []struct {
		File     string   `json:"file"`
		Line     int      `json:"line"`
		Col      int      `json:"col"`
		Analyzer string   `json:"analyzer"`
		Message  string   `json:"message"`
		Chain    []string `json:"chain"`
	}
	if err := json.Unmarshal(stdout, &diags); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics in JSON output")
	}
	found := false
	for _, d := range diags {
		if d.Analyzer != "lockfree" {
			continue
		}
		found = true
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
		want := []string{"example.com/scratch.Serve", "example.com/scratch.helper", "(*sync.Mutex).Lock"}
		if len(d.Chain) != len(want) {
			t.Fatalf("chain = %v, want %v", d.Chain, want)
		}
		for i := range want {
			if d.Chain[i] != want[i] {
				t.Fatalf("chain = %v, want %v", d.Chain, want)
			}
		}
	}
	if !found {
		t.Fatalf("no lockfree diagnostic in JSON output: %s", stdout)
	}
}

// TestVettoolProtocol runs the binary the way cmd/go does: `go vet
// -vettool=streamlint`, exercising the -V/-flags probes and the *.cfg unit
// protocol end to end.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	src := `package bad

import "time"

func now() time.Time {
	return time.Now()
}
`
	writeModule(t, dir, src)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet should fail on a time.Now violation, output:\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now on a seeded deterministic path") {
		t.Fatalf("missing detorder diagnostic under vettool protocol:\n%s", out)
	}

	// And a clean package passes.
	writeModule(t, dir, "package bad\n\nfunc ok() int { return 1 }\n")
	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet on clean package: %v\n%s", err, out)
	}
}

// writeModule lays out a single-file module named like an in-scope streamgnn
// package, so detorder's scoping applies to it.
func writeModule(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
