package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hetcc"
	"hetcc/internal/platform"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c.EndToEnd, c.PerLayer
}

// shortConfig is a run of the shortest length: one sweep per pass.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		budget:    time.Millisecond,
		trace:     trace,
		jobs:      2,
		seedFile:  "../BENCH_seed.json",
		spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// TestSmokeEveryMetricPrinted runs every workload untraced and traced at the
// shortest length and checks that the JSON line holds exactly the metrics
// BENCHMARK.json lists, each with its unit, and that each is also printed
// on its own line.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			cfg := shortConfig(t, w, trace)
			var out, log bytes.Buffer
			sum, err := execute(cfg, &out, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, sum.Correct, sum.Attempted, sum.Failed, log.String())
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s trace=%v: no printed line for %s in %s", w, trace, m.Name, m.Unit)
				}
			}
			if _, err := json.Marshal(sum); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			if trace {
				checkSpansFile(t, cfg.spansPath)
			}
		}
	}
}

// checkSpansFile checks that the traced pass wrote parseable spans with op
// roots.
func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Layer == "op" {
			roots++
		}
	}
	if roots == 0 {
		t.Errorf("%s: no op spans", path)
	}
}

// TestFailedOpIsCounted injects the broken configuration of the paper's
// Tables 2 and 3, a heterogeneous platform without its wrappers, beside a
// sound op: the failures are counted against the attempts, the run goes on,
// and the summary is marked incorrect.
func TestFailedOpIsCounted(t *testing.T) {
	sound := paperMatrix(0)[0]
	unwired := &simOp{
		label: "pf3/wcs/proposed/no-wrappers",
		cfg: hetcc.Config{
			Scenario: hetcc.WCS, Solution: hetcc.Proposed, Processors: platform.PPCI486(),
			Params: paperParams, Verify: true, Audit: true, DisableWrappers: true,
		},
	}
	wl := simWorkload("inject", []*simOp{sound, unwired})
	for _, trace := range []bool{false, true} {
		var out, log bytes.Buffer
		sum, err := measure(shortConfig(t, "inject", trace), wl, &out, &log)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if sum.Correct || sum.Failed == 0 || sum.Failed >= sum.Attempted {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, sum.Correct, sum.Attempted, sum.Failed)
		}
		if !strings.Contains(log.String(), unwired.label) {
			t.Errorf("trace=%v: failure log does not name the op:\n%s", trace, log.String())
		}
	}
}

// TestRunExitCodes checks that bad arguments exit 2 without a result line.
func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "prove", "--seconds", "0"},
		{"--workload", "prove", "--trace", "2"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result line", args)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 30},    // child
		{ID: 2, Parent: 0, Start: 20, End: 50},    // overlaps child 1
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past the root's end
		{ID: 4, Parent: 2, Start: 25, End: 35},    // grandchild
		{ID: 5, Parent: -1, Start: 200, End: 200}, // empty root
	}
	// Root: 100 minus the union [10,50) and [90,100) = 100 - 50.
	want := []int64{50, 20, 20, 30, 10, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 225 {
		t.Errorf("p90 = %v, want 225", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestProbeSpeed(t *testing.T) {
	var h hostProbe
	h.run()
	if h.fastest <= 0 || h.speed() <= 0 {
		t.Errorf("probe: fastest %v, speed %v", h.fastest, h.speed())
	}
	if h := (hostProbe{fastest: probeRef / 2}); h.speed() != 2 {
		t.Errorf("speed at half the reference time = %v, want 2", h.speed())
	}
}

// TestPlanBatches checks that the parallel plan runs every op exactly once,
// in batches of like size, each heaviest first.
func TestPlanBatches(t *testing.T) {
	work := make([]uint64, 100)
	for i := range work {
		work[i] = uint64(i*37%101) + 1
	}
	plan := planBatches(work)
	if len(plan) != 4 {
		t.Fatalf("%d batches of 100 ops, want 4", len(plan))
	}
	seen := make(map[int]bool)
	for _, idx := range plan {
		if len(idx) != 25 {
			t.Errorf("batch of %d ops, want 25", len(idx))
		}
		for j, i := range idx {
			if seen[i] {
				t.Errorf("op %d planned twice", i)
			}
			seen[i] = true
			if j > 0 && work[i] > work[idx[j-1]] {
				t.Errorf("batch %v is not heaviest first", idx)
			}
		}
	}
	if len(seen) != len(work) {
		t.Errorf("%d of %d ops planned", len(seen), len(work))
	}
}

// TestProveGate checks that the prove workload covers every 2- and 3-master
// multiset under every wiring, in an order fixed by the seed, and that the
// explorer passes the proof gate on each.
func TestProveGate(t *testing.T) {
	ops := proveOps(3)
	if len(ops) != (21+56)*len(proveModes) {
		t.Fatalf("%d prove ops, want %d", len(ops), (21+56)*len(proveModes))
	}
	if len(proveOps(0)) != len(ops) || proveOps(3)[0].name() != ops[0].name() {
		t.Error("prove op order is not a function of the seed")
	}
	for _, o := range ops {
		if r := o.do(nil); r.err != nil {
			t.Error(r.err)
		}
	}
}
