package streamgnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"streamgnn/internal/query"
)

// mixedRequests builds a deterministic request batch covering every kind plus
// the rejection paths (out-of-range anchors and unknown kinds, among them the
// retired "density"), so the batched scatter has holes to route around.
func mixedRequests(rng *rand.Rand, rows, count int) []query.Request {
	reqs := make([]query.Request, count)
	for i := range reqs {
		switch rng.Intn(5) {
		case 0:
			reqs[i] = query.Request{Kind: query.KindEvent, Anchor: rng.Intn(rows)}
		case 1, 2:
			reqs[i] = query.Request{Kind: query.KindLink, Src: rng.Intn(rows), Dst: rng.Intn(rows)}
		case 3:
			reqs[i] = query.Request{Kind: query.KindEvent, Anchor: rows + rng.Intn(5)}
		default:
			reqs[i] = query.Request{Kind: "density", Node: rng.Intn(rows)}
		}
	}
	reqs[0] = query.Request{Kind: "bogus"}
	return reqs
}

// The batched answer path must be bit-identical to answering each query alone,
// for every model kind and across batch sizes — the invariant that lets the
// server batch aggressively without changing any answer.
func TestBatchedAnswersBitEqualSerial(t *testing.T) {
	for _, name := range ModelNames() {
		cfg := DefaultConfig()
		cfg.Model = name
		cfg.Hidden = 6
		e := endToEnd(t, cfg, 6)
		snap := e.QuerySnapshot()
		if snap == nil {
			t.Fatalf("%s: no snapshot after stepping", name)
		}
		if snap.Step() != e.CurrentStep()-1 {
			t.Fatalf("%s: snapshot step %d, engine step %d", name, snap.Step(), e.CurrentStep())
		}
		rng := rand.New(rand.NewSource(42))
		for _, batch := range []int{1, 7, 64} {
			reqs := mixedRequests(rng, snap.Rows(), batch)
			batched := snap.Answer(reqs, nil)
			for i := range reqs {
				serial := snap.Answer(reqs[i:i+1], nil)[0]
				if serial != batched[i] {
					t.Fatalf("%s batch=%d query %d (%+v): batched %+v != serial %+v",
						name, batch, i, reqs[i], batched[i], serial)
				}
				k := reqs[i].Kind
				if k == query.KindEvent || k == query.KindLink {
					continue
				}
				if want := fmt.Sprintf("unknown query kind %q", k); serial.OK || serial.Err != want {
					t.Fatalf("%s: %q request answered %+v, want error %q", name, k, serial, want)
				}
			}
		}
	}
}

func TestQuerySnapshotNilBeforeFirstStep(t *testing.T) {
	e, err := NewEngine(2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.QuerySnapshot() != nil {
		t.Fatal("snapshot exists before any step")
	}
}

// A held snapshot must answer bit-identically while the engine keeps stepping
// — the no-lock serving claim. Run with -race: the step loop (splicing,
// training, invalidating) and the serving reader share only the published
// matrix, and any in-place write to it is a data race.
func TestSnapshotStableUnderConcurrentSteps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWeighted
	cfg.Hidden = 6
	cfg.Interval = 2 // exercise both the splice and the invalidate paths
	e := endToEnd(t, cfg, 4)
	snap := e.QuerySnapshot()
	rng := rand.New(rand.NewSource(5))
	reqs := mixedRequests(rng, snap.Rows(), 32)
	want := snap.Answer(reqs, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the step loop: the only goroutine mutating the engine
		defer wg.Done()
		defer close(done)
		for s := 0; s < 12; s++ {
			e.AddEdge(rng.Intn(e.NumNodes()), rng.Intn(e.NumNodes()), 0)
			if err := e.Step(); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		got := snap.Answer(reqs, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("held snapshot's answer %d drifted: %+v != %+v", i, got[i], want[i])
				alive = false
				break
			}
		}
	}
	wg.Wait()
	if fresh := e.QuerySnapshot(); fresh == snap || fresh.Step() <= snap.Step() {
		t.Fatal("engine did not publish fresh snapshots while stepping")
	}
}

// seedWindowDensityDigest is the hex SHA-256 of SeedWindowDensity's vector
// (each entry's float64 bits, little-endian) after endToEnd's six KDE steps.
// It pins the walk's accumulation order: the density reads each node's
// out-edges, then its in-edges, and sums in exactly that order.
const seedWindowDensityDigest = "9e7eac704b6aeb9b568f1cac011e5d584bbdbcc19981a209575f722266eec639"

func TestSeedWindowDensity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyKDE
	cfg.Hidden = 6
	e := endToEnd(t, cfg, 6)
	d, err := e.SeedWindowDensity()
	if err != nil {
		t.Fatalf("kde engine density: %v", err)
	}
	if len(d) != e.NumNodes() {
		t.Fatalf("density len %d, nodes %d", len(d), e.NumNodes())
	}
	h := sha256.New()
	for i, v := range d {
		if v < 0 {
			t.Fatalf("negative density at %d: %v", i, v)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedWindowDensityDigest {
		t.Fatalf("density digest %s, pinned %s", got, seedWindowDensityDigest)
	}

	// Strategies without a KDE seed window refuse.
	cfg2 := DefaultConfig()
	cfg2.Strategy = StrategyFull
	cfg2.Hidden = 6
	e2 := endToEnd(t, cfg2, 2)
	if _, err := e2.SeedWindowDensity(); err == nil {
		t.Fatal("full strategy returned a seed-window density")
	}
}
