package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamgnn"
	"streamgnn/internal/cluster"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// checkExposition checks a Prometheus text page against four rules: every
// sample's family has exactly one HELP and one TYPE line, both before its
// first sample; a family's lines are contiguous (never split or repeated);
// a histogram series' buckets never decrease; and its le="+Inf" bucket
// equals its _count.
func checkExposition(page string) error {
	type family struct {
		help    bool
		typ     string
		samples bool
	}
	var cur *family
	curName := ""
	seen := map[string]bool{}
	lastBucket := map[string]float64{} // histogram series -> last bucket value
	inf := map[string]float64{}        // histogram series -> its +Inf bucket
	for n, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if f := strings.SplitN(line, " ", 4); len(f) == 4 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") {
			if f[2] != curName {
				if seen[f[2]] {
					return fail("family %s split or repeated", f[2])
				}
				seen[f[2]] = true
				cur, curName = &family{}, f[2]
			}
			switch {
			case cur.samples:
				return fail("%s line after the family's first sample", f[1])
			case f[1] == "HELP" && cur.help, f[1] == "TYPE" && cur.typ != "":
				return fail("second %s line", f[1])
			case f[1] == "HELP":
				cur.help = true
			default:
				cur.typ = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fail("not a sample")
		}
		value, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fail("bad value: %v", err)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		suffix, inHist := "", false
		if cur != nil && cur.typ == "histogram" {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if name == curName+s {
					suffix, inHist = s, true
				}
			}
		}
		if name != curName && !inHist {
			return fail("sample outside its family's HELP/TYPE block (family untyped, split or repeated)")
		}
		if !cur.help || cur.typ == "" {
			return fail("family %s has no HELP or no TYPE before its first sample", curName)
		}
		cur.samples = true
		if !inHist {
			continue
		}
		var le string
		var rest []string
		for _, l := range strings.Split(labels, ",") {
			if v, ok := strings.CutPrefix(l, "le="); ok {
				le = v
			} else if l != "" {
				rest = append(rest, l)
			}
		}
		series := curName + "{" + strings.Join(rest, ",") + "}"
		switch suffix {
		case "_bucket":
			if last, ok := lastBucket[series]; ok && value < last {
				return fail("bucket below the previous one (%v)", last)
			}
			lastBucket[series] = value
			if le == `"+Inf"` {
				inf[series] = value
			}
		case "_count":
			if v, ok := inf[series]; !ok || v != value {
				return fail("_count %v but +Inf bucket %v (present: %v)", value, v, ok)
			}
		}
	}
	return nil
}

// The rules fire: each page below breaks exactly one of them.
func TestCheckExpositionRejects(t *testing.T) {
	const ok = "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n" +
		"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if err := checkExposition(ok); err != nil {
		t.Fatalf("a valid page was rejected: %v", err)
	}
	for name, page := range map[string]string{
		"no header":      "a_total 1\n",
		"no TYPE":        "# HELP a_total A.\na_total 1\n",
		"two HELPs":      "# HELP a_total A.\n# HELP a_total A.\n# TYPE a_total counter\na_total 1\n",
		"late TYPE":      "# HELP a_total A.\na_total 1\n# TYPE a_total counter\n",
		"split family":   ok + "a_total{x=\"1\"} 1\n",
		"repeated":       ok + "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n",
		"untyped hist":   ok + "g_bucket{le=\"+Inf\"} 1\ng_sum 1\ng_count 1\n",
		"falling bucket": "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n",
		"count != +Inf":  "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 3\n",
	} {
		if checkExposition(page) == nil {
			t.Errorf("%s: page accepted:\n%s", name, page)
		}
	}
}

// Every /metrics page queryd serves — the single-process page, the
// coordinator's (engine, cluster and wire families) and a replica's — keeps
// the exposition rules.
func TestMetricsPagesExposition(t *testing.T) {
	pages := map[string]string{}

	// Single process, with the incremental forward on so its conditional
	// families render too.
	d, err := workload.ByName("Bitcoin", workload.GenConfig{Seed: 1, Steps: 12})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamgnn.NewEngine(d.FeatDim, streamgnn.Config{
		Model: "TGCN", Strategy: "kde", Hidden: 4, Seed: 1, WindowSteps: d.WindowSteps,
		IncrementalForward: true, Interval: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	single := &server{eng: eng, dataset: d.Name, started: time.Now()}
	if _, err := single.replay(context.Background(), stream.NewReplayer(eng.Graph(), d.Source(), 0), 0); err != nil {
		t.Fatal(err)
	}
	pages["single-process"] = scrape(t, single)

	// Coordinator, with its cluster and wire families appended as run()
	// appends them.
	coordSrv, coord, reps, _ := replayCoordinated(t)
	wires := []*cluster.HTTPTransport{{}, {}}
	coordSrv.extraMetrics = func(w io.Writer) {
		coord.WriteMetrics(w)
		cluster.WriteWireMetrics(w, wires)
	}
	pages["coordinator"] = scrape(t, coordSrv)

	var b bytes.Buffer
	writeReplicaMetrics(&b, reps[0])
	pages["replica"] = b.String()

	for name, page := range pages {
		if err := checkExposition(page); err != nil {
			t.Errorf("%s page: %v", name, err)
		}
	}
	for _, want := range []string{"streamgnn_forward_dirty_fraction_count", "streamgnn_query_latency_seconds_count 2", "streamgnn_step_join_wait_seconds_count"} {
		if !strings.Contains(pages["single-process"], want) {
			t.Errorf("single-process page lacks %q", want)
		}
	}
}

// scrape answers two queries through a fresh batcher on srv, then renders its
// /metrics page.
func scrape(t *testing.T, srv *server) string {
	t.Helper()
	srv.batcher = serve.NewBatcher(serve.Config{MaxBatch: 2}, srv.answerBatch)
	defer srv.batcher.Close()
	srv.batcher.Submit([]query.Request{{Kind: query.KindEvent, Anchor: 0}, {Kind: query.KindEvent, Anchor: 1}})
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}
