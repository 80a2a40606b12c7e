package main

import (
	"fmt"
	"time"

	"hetcc"
	"hetcc/internal/platform"
	"hetcc/internal/runner"
	"hetcc/internal/workload"
)

// maxCycles is hetcc.Run's default simulation budget.
const maxCycles = 50_000_000

// simOp is one simulation: build, load, run, report and digest.
type simOp struct {
	label string
	cfg   hetcc.Config
	// wantCycles, when nonzero, is the engine cycle count the run must end
	// at (the recorded seed matrix).
	wantCycles uint64
}

func (o *simOp) name() string { return o.label }

// platformConfig is the platform configuration hetcc.Build derives from cfg
// for the fields the workloads set.  The parallel pass goes through
// hetcc.RunBatch, and the serial and parallel report digests must agree, so
// any drift from hetcc.Build fails the run.
func platformConfig(cfg hetcc.Config) platform.Config {
	return platform.Config{
		Processors: cfg.Processors,
		Solution:   cfg.Solution,
		Timing:     cfg.Timing,
		Lock: platform.LockChoice{
			Kind:      platform.LockUncachedTAS,
			Alternate: cfg.Scenario.Alternate(),
			SpinDelay: 4,
		},
		Verify:          cfg.Verify,
		DisableWrappers: cfg.DisableWrappers,
		TraceCap:        cfg.TraceCap,
		Metrics:         cfg.Metrics,
		Audit:           cfg.Audit,
		Profile:         cfg.Profile,
		Spans:           cfg.Spans,
		Sharing:         cfg.Sharing,
	}
}

// build assembles the platform and loads its programs, recording one span
// per layer call on tr.
func (o *simOp) build(tr *tracer) (*platform.Platform, error) {
	c := o.cfg
	s := tr.begin("platform.build")
	p, err := platform.Build(platformConfig(c))
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", o.label, err)
	}
	s = tr.begin("workload.programs")
	progs, err := workload.Programs(c.Scenario, c.Params, c.Solution, len(c.Processors))
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: programs: %w", o.label, err)
	}
	s = tr.begin("platform.load")
	err = p.LoadPrograms(progs)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", o.label, err)
	}
	return p, nil
}

func (o *simOp) do(tr *tracer) result {
	start := time.Now()
	root := tr.beginOp(o.label)
	p, err := o.build(tr)
	if err != nil {
		tr.end(root)
		return result{err: err, elapsed: time.Since(start)}
	}
	setupEnd := time.Now()
	s := tr.begin("platform.run")
	res := p.Run(maxCycles)
	tr.end(s)
	runEnd := time.Now()
	s = tr.begin("platform.report")
	rep := p.Report(res, o.cfg.Scenario.String())
	tr.end(s)
	s = tr.begin("runner.digest")
	digest, err := runner.ReportDigest(rep)
	tr.end(s)
	end := time.Now()
	tr.end(root)

	r := result{
		digest:  digest,
		elapsed: end.Sub(start),
		setup:   setupEnd.Sub(start),
		work:    runEnd.Sub(setupEnd),
		sim:     countSim(p, res),
	}
	if err != nil {
		r.err = fmt.Errorf("%s: digest: %w", o.label, err)
	} else {
		r.err = o.check(res)
	}
	return r
}

// check applies the correctness gate to one finished simulation.
func (o *simOp) check(res platform.Result) error {
	switch {
	case res.Err != nil:
		return fmt.Errorf("%s: run ended abnormally: %w (%s)", o.label, res.Err, res.StopReason)
	case !res.Coherent():
		return fmt.Errorf("%s: %d stale reads, first %v", o.label, len(res.Violations), res.Violations[0])
	case res.Audit != nil && res.Audit.ViolationCount != 0:
		return fmt.Errorf("%s: %d audit violations, first %v", o.label, res.Audit.ViolationCount, res.Audit.Violations[0])
	case o.wantCycles != 0 && res.Cycles != o.wantCycles:
		return fmt.Errorf("%s: %d cycles, recorded seed matrix has %d", o.label, res.Cycles, o.wantCycles)
	}
	return nil
}

// simBatch runs the ops at idx through hetcc.RunBatch on jobs workers.
func simBatch(ops []*simOp, idx []int, jobs int) []result {
	specs := make([]hetcc.BatchSpec, len(idx))
	for i, k := range idx {
		specs[i] = hetcc.BatchSpec{Label: ops[k].label, Config: ops[k].cfg}
	}
	out := make([]result, len(idx))
	for i, br := range hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: jobs, Reports: true}) {
		out[i] = result{digest: br.Digest, elapsed: br.Elapsed}
		if br.Err != nil {
			out[i].err = br.Err
		} else {
			out[i].err = ops[idx[i]].check(br.Result.Result)
		}
	}
	return out
}

// simCounts are simulated-machine and scheduler counts, summed over ops.
// They are exact: a change that only speeds up the simulator leaves every
// one of them unchanged.
type simCounts struct {
	cycles       uint64 // engine cycles
	passes       uint64 // engine passes the scheduler ran
	wakes        uint64 // scheduler wake-ups
	instructions uint64
	stallCycles  uint64 // core clock edges spent stalled
	coreCycles   uint64 // core clock edges until each core halted
	tenures      uint64
	aborted      uint64 // tenures aborted by ARTRY
	busBusy      uint64
	busIdle      uint64
	accesses     uint64 // cache reads and writes
	hits         uint64
	snoopHits    uint64
	conversions  uint64 // wrapper snoop conversions
	fiqs         uint64 // TAG-CAM snoop hits, each raising nFIQ
	spurious     uint64 // TAG-CAM hits on stale entries
}

func countSim(p *platform.Platform, res platform.Result) simCounts {
	st := p.Engine.SchedStats()
	c := simCounts{
		cycles:  res.Cycles,
		passes:  st.Passes,
		wakes:   st.Wakes,
		tenures: res.Bus.Tenures,
		aborted: res.Bus.Aborted,
		busBusy: res.Bus.BusyCycles,
		busIdle: res.Bus.IdleCycles,
	}
	for i, cs := range res.CPU {
		c.instructions += cs.Instructions
		c.stallCycles += cs.StallCycles
		c.coreCycles += cs.HaltCycle / max(p.Config.Processors[i].ClockDiv, 1)
	}
	for _, cs := range res.Cache {
		c.accesses += cs.ReadHits + cs.ReadMisses + cs.WriteHits + cs.WriteMisses
		c.hits += cs.ReadHits + cs.WriteHits
		c.snoopHits += cs.SnoopHits
	}
	for _, n := range res.WrapperConv {
		c.conversions += n
	}
	for _, sl := range res.Snoop {
		c.fiqs += sl.Hits
		c.spurious += sl.SpuriousHits
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.cycles += o.cycles
	c.passes += o.passes
	c.wakes += o.wakes
	c.instructions += o.instructions
	c.stallCycles += o.stallCycles
	c.coreCycles += o.coreCycles
	c.tenures += o.tenures
	c.aborted += o.aborted
	c.busBusy += o.busBusy
	c.busIdle += o.busIdle
	c.accesses += o.accesses
	c.hits += o.hits
	c.snoopHits += o.snoopHits
	c.conversions += o.conversions
	c.fiqs += o.fiqs
	c.spurious += o.spurious
}

// layer names one observability layer of the observe-cost pass.
type layer struct {
	name string
	on   func(*hetcc.Config)
}

// observabilityLayers are the layers a run can switch on.  The event stream
// (internal/event) has no switch of its own: audit, profile, span and
// sharing each subscribe to it, so its cost is inside theirs.
var observabilityLayers = []layer{
	{"audit", func(c *hetcc.Config) { c.Audit = true }},
	{"profile", func(c *hetcc.Config) { c.Profile = true }},
	{"span", func(c *hetcc.Config) { c.Spans = true }},
	{"sharing", func(c *hetcc.Config) { c.Sharing = true }},
	{"metrics", func(c *hetcc.Config) { c.Metrics = true }},
	{"trace", func(c *hetcc.Config) { c.TraceCap = 4096 }},
}

// bare returns cfg with every observability layer off; Verify stays as set.
func bare(cfg hetcc.Config) hetcc.Config {
	cfg.Audit, cfg.Profile, cfg.Spans, cfg.Sharing, cfg.Metrics = false, false, false, false, false
	cfg.TraceCap = 0
	return cfg
}

// allLayers returns cfg with every observability layer on.
func allLayers(cfg hetcc.Config) hetcc.Config {
	for _, l := range observabilityLayers {
		l.on(&cfg)
	}
	return cfg
}
