package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/runner"
)

// op is one measured unit of work: a simulation, or one exploration.
type op interface {
	name() string
	// do runs the op once and checks its output, recording one span per
	// layer call on tr when tr is non-nil.
	do(tr *tracer) result
}

// result is one op's outcome.
type result struct {
	digest  string
	err     error         // nil when every correctness check passed
	elapsed time.Duration // host time of the op, checks excluded
	setup   time.Duration // host time before the first simulated cycle
	work    time.Duration // host time in Platform.Run or explore.Explore
	sim     simCounts
	proof   proofCounts
}

// workloadSpec is one workload: the ops of one sweep, and how to run a sweep
// on a worker pool.
type workloadSpec struct {
	name string
	ops  []op
	// parallel runs the ops at idx as one batch on jobs workers and returns
	// their results in the order of idx.
	parallel func(idx []int, jobs int) []result
	// simOps is ops as simulations (nil for prove).
	simOps []*simOp
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"paper-matrix", "prove"}

// newWorkload returns the named workload with per-op inputs derived from
// seed.  Seed 0 keeps every op on the default workload stream.
func newWorkload(name string, seed uint64) (*workloadSpec, error) {
	switch name {
	case "paper-matrix":
		var ops []*simOp
		for r := 0; r < paperReplicas; r++ {
			for _, o := range paperMatrix(opSeed(seed, r)) {
				o.label += fmt.Sprintf("#%d", r)
				ops = append(ops, o)
			}
		}
		return simWorkload(name, ops), nil
	case "prove":
		pops := proveOps(seed)
		w := &workloadSpec{name: name, parallel: func(idx []int, jobs int) []result { return proveBatch(pops, idx, jobs) }}
		for _, o := range pops {
			w.ops = append(w.ops, o)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func simWorkload(name string, sops []*simOp) *workloadSpec {
	w := &workloadSpec{name: name, simOps: sops, parallel: func(idx []int, jobs int) []result { return simBatch(sops, idx, jobs) }}
	for _, o := range sops {
		w.ops = append(w.ops, o)
	}
	return w
}

// opSeed gives op i its workload seed; seed 0 leaves the default stream.
func opSeed(seed uint64, i int) uint64 {
	if seed == 0 {
		return 0
	}
	return runner.DeriveSeed(seed, i)
}

// paperParams are the case-study microbenchmark knobs of BENCH_seed.json.
var paperParams = hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 8, WordsPerLine: 8}

// paperPlatforms are the paper's three case-study platforms.
var paperPlatforms = []struct {
	name  string
	procs func() []platform.ProcessorSpec
}{
	{"pf1", platform.ARMPair},
	{"pf2", platform.PPCARm},
	{"pf3", platform.PPCI486},
}

var paperScenarios = []hetcc.Scenario{hetcc.WCS, hetcc.TCS, hetcc.BCS}

// paperReplicas is how many copies of the 27-run matrix, each on its own
// per-op seeds, make one paper-matrix sweep: 108 ops, so that at least 10 of
// them lie beyond the op-latency p90.
const paperReplicas = 4

// paperMatrix is the 27-run case-study matrix at Table-4 timing, Verify on
// and observability off.
func paperMatrix(seed uint64) []*simOp {
	var ops []*simOp
	for _, pf := range paperPlatforms {
		for _, sc := range paperScenarios {
			for _, sol := range platform.Solutions() {
				params := paperParams
				params.Seed = opSeed(seed, len(ops))
				ops = append(ops, &simOp{
					label: fmt.Sprintf("%s/%s/%s", pf.name, strings.ToLower(sc.String()), sol),
					cfg: hetcc.Config{
						Scenario: sc, Solution: sol, Processors: pf.procs(),
						Params: params, Verify: true,
					},
				})
			}
		}
	}
	return ops
}

// seedMatrix is the paper matrix at the default seed, each run checked
// against the cycle count recorded in path (BENCH_seed.json).
func seedMatrix(path string) ([]*simOp, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("seed matrix: %w", err)
	}
	var recorded struct {
		Runs []struct {
			Name   string `json:"name"`
			Cycles uint64 `json:"cycles"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		return nil, fmt.Errorf("seed matrix: %s: %w", path, err)
	}
	want := make(map[string]uint64, len(recorded.Runs))
	for _, r := range recorded.Runs {
		want[r.Name] = r.Cycles
	}
	ops := paperMatrix(0)
	if len(want) != len(ops) {
		return nil, fmt.Errorf("seed matrix: %s records %d runs, the matrix has %d", path, len(want), len(ops))
	}
	for _, o := range ops {
		if want[o.label] == 0 {
			return nil, fmt.Errorf("seed matrix: %s has no run %q", path, o.label)
		}
		o.wantCycles = want[o.label]
	}
	return ops, nil
}
