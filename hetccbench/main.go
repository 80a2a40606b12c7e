// Command hetccbench is hetcc's standing benchmark.  It runs one workload
// for a fixed host-time budget, checks every output, prints every metric by
// name with its unit, and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// With -trace 0 it measures the end-to-end metrics: a serial pass (jobs = 1)
// and a parallel pass (jobs = nproc).  With -trace 1 it measures the
// per-layer metrics from a traced serial pass, and also reports what tracing
// costs.  README.md gives the workloads, the metrics and what each should
// move.  Run it through run.sh from the repository root:
//
//	bash hetccbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
//
// It exits 1 when any op fails a correctness check, and 2, without a JSON
// line, when it cannot run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration // measured host time, set-up and warm-up excluded
	trace    bool
	jobs     int
	// seedFile holds the recorded cycle counts of the seed matrix.
	seedFile string
	// spansPath receives the traced pass's spans as JSON lines.
	spansPath string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload: paper-matrix or prove")
		seed    = fs.Uint64("seed", 0, "workload seed (0 = the default workload stream)")
		seconds = fs.Int("seconds", 10, "measured host seconds, 1..600")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || *seconds > 600 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "hetccbench: want --workload NAME --seed N --seconds 1..600 --trace 0|1")
		return 2
	}
	cfg := config{
		workload:  *wl,
		seed:      *seed,
		budget:    time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		jobs:      min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		seedFile:  "BENCH_seed.json",
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *wl, *seed)),
	}
	sum, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hetccbench:", err)
		return 2
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "hetccbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs cfg and returns its summary; the human-readable report goes
// to out and failures to log.
func execute(cfg config, out, log io.Writer) (summary, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return summary{}, err
	}
	return measure(cfg, wl, out, log)
}

// measure runs the passes cfg asks for over wl.
func measure(cfg config, wl *workloadSpec, out, log io.Writer) (summary, error) {
	m, err := newManifest(cfg)
	if err != nil {
		return summary{}, err
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintf(out, "hetccbench %s seed=%d trace=%v jobs=%d budget=%v\n", cfg.workload, cfg.seed, cfg.trace, cfg.jobs, cfg.budget)
	fmt.Fprintf(out, "manifest %s\n", raw)

	b := &bench{cfg: cfg, wl: wl, log: log, metrics: make(map[string]metric)}
	if wl.name == "paper-matrix" {
		seedOps, err := seedMatrix(cfg.seedFile)
		if err != nil {
			return summary{}, err
		}
		for _, o := range seedOps {
			b.record(o.label, o.do(nil), "")
		}
	}
	// The warm-up sweep fills caches and fixes each op's reference digest;
	// every later run of the op, serial or parallel, must match it.
	b.ref = make([]string, len(wl.ops))
	work := make([]uint64, len(wl.ops))
	for i, o := range wl.ops {
		r := o.do(nil)
		b.record(o.name(), r, "")
		b.ref[i] = r.digest
		work[i] = r.sim.passes + uint64(r.proof.transitions)
		b.sweep.sim.add(r.sim)
		b.sweep.proof.add(r.proof)
	}
	b.batches = planBatches(work)

	if cfg.trace {
		if err := b.perLayer(); err != nil {
			return summary{}, err
		}
	} else {
		b.endToEnd()
	}
	b.print(out)
	return summary{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// bench holds one run's state.
type bench struct {
	cfg config
	wl  *workloadSpec
	log io.Writer
	ref []string // reference digest per op
	// batches splits the sweep into the parallel pass's batches.
	batches [][]int
	// sweep holds the exact counts of one sweep (the warm-up).
	sweep struct {
		sim   simCounts
		proof proofCounts
	}
	attempted, failed int
	metrics           map[string]metric
	// info holds figures printed but kept off the JSON line.
	info  map[string]metric
	notes map[string]string
}

// record counts one op outcome; a digest that differs from want is a
// failure.  It reports whether the op passed.
func (b *bench) record(name string, r result, want string) bool {
	b.attempted++
	err := r.err
	if err == nil && want != "" && r.digest != want {
		err = fmt.Errorf("%s: report digest %.12s differs from the reference sweep's %.12s", name, r.digest, want)
	}
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintln(b.log, "hetccbench: FAIL", err)
	}
	return false
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

func (b *bench) setInfo(name string, value float64, unit string) {
	if b.info == nil {
		b.info = make(map[string]metric)
	}
	b.info[name] = metric{Value: value, Unit: unit}
}

// note attaches an explanation, such as a ratio's base, to a metric's line.
func (b *bench) note(name, text string) {
	if b.notes == nil {
		b.notes = make(map[string]string)
	}
	b.notes[name] = text
}

// print writes one line per metric, sorted by name, then the figures kept
// off the JSON line.
func (b *bench) print(out io.Writer) {
	for _, set := range []map[string]metric{b.metrics, b.info} {
		for _, name := range sortedKeys(set) {
			m := set[name]
			line := fmt.Sprintf("%-32s %16.6g %s", name, m.Value, m.Unit)
			if n := b.notes[name]; n != "" {
				line += "  (" + n + ")"
			}
			fmt.Fprintln(out, line)
		}
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", b.attempted, b.failed)
}
