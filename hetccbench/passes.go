package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"hetcc"
)

// heapCounters returns the cumulative heap allocation count and bytes.
// runtime.ReadMemStats stops the world for a few microseconds but, unlike
// runtime/metrics, counts every allocation exactly; callers read it outside
// the intervals they time.
func heapCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// serialStats summarises a serial pass.
type serialStats struct {
	ops, sweeps int
	opMS        []float64       // latency of every op run
	best        []time.Duration // fastest latency of each op of the sweep
	setupS      [][]float64     // set-up time of each op, one per sweep
	// sweepWorkS is each sweep's summed time in Platform.Run or
	// explore.Explore.
	sweepWorkS    []float64
	allocs, bytes uint64
	sim           simCounts
}

// sweepOnce runs every op once on this goroutine, adds the outcome to st
// and returns each op's latency.
func (b *bench) sweepOnce(tr *tracer, st *serialStats) []time.Duration {
	lat := make([]time.Duration, len(b.wl.ops))
	if st.best == nil {
		st.best = make([]time.Duration, len(b.wl.ops))
		st.setupS = make([][]float64, len(b.wl.ops))
	}
	var work time.Duration
	a0, by0 := heapCounters()
	for i, o := range b.wl.ops {
		r := o.do(tr)
		b.record(o.name(), r, b.ref[i])
		lat[i] = r.elapsed
		if st.sweeps == 0 || r.elapsed < st.best[i] {
			st.best[i] = r.elapsed
		}
		st.ops++
		st.opMS = append(st.opMS, seconds(r.elapsed)*1e3)
		st.sim.add(r.sim)
		st.setupS[i] = append(st.setupS[i], seconds(r.setup))
		work += r.work
	}
	a1, by1 := heapCounters()
	st.allocs += a1 - a0
	st.bytes += by1 - by0
	st.sweepWorkS = append(st.sweepWorkS, seconds(work))
	st.sweeps++
	return lat
}

// parallelStats summarises a parallel pass.
type parallelStats struct {
	sweeps int
	best   []time.Duration // fastest wall time of each batch of the plan
	// busy is the op time the pool measured; wall the batches' wall time.
	busy, wall time.Duration
}

// parallelSweep runs every batch of the plan once on the worker pool and
// adds the outcome to st.
func (b *bench) parallelSweep(st *parallelStats) {
	if st.best == nil {
		st.best = make([]time.Duration, len(b.batches))
	}
	for k, idx := range b.batches {
		t0 := time.Now()
		rs := b.wl.parallel(idx, b.cfg.jobs)
		d := time.Since(t0)
		st.wall += d
		if st.sweeps == 0 || d < st.best[k] {
			st.best[k] = d
		}
		for j, r := range rs {
			i := idx[j]
			b.record(b.wl.ops[i].name(), r, b.ref[i])
			st.busy += r.elapsed
		}
	}
	st.sweeps++
}

// parallel runs parallel sweeps until budget has passed.
func (b *bench) parallel(budget time.Duration) parallelStats {
	var st parallelStats
	start := time.Now()
	for st.sweeps == 0 || time.Since(start) < budget {
		b.parallelSweep(&st)
	}
	return st
}

// batchSize is the number of ops in one parallel batch.  Short batches let
// the fastest run of each fall inside a quiet spell of the host.
const batchSize = 27

// planBatches deals the ops, heaviest first by their exact work in the
// warm-up sweep, round-robin into batches of about batchSize ops.  Every
// batch then holds a like mix and ends on its lightest ops, whatever order
// the seed gives the sweep.
func planBatches(work []uint64) [][]int {
	order := make([]int, len(work))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return work[order[x]] > work[order[y]] })
	batches := make([][]int, (len(work)+batchSize-1)/batchSize)
	for r, i := range order {
		batches[r%len(batches)] = append(batches[r%len(batches)], i)
	}
	return batches
}

// endToEnd measures the end-to-end metrics.  Serial sweeps and parallel
// sweeps alternate for the whole budget, each serial sweep followed by runs
// of the host-speed probe, so that all of them see the same spells of host
// contention and the same core clock.
//
// Other tenants of a shared machine slow it in spells, and a spell only
// ever adds time, so the host-time figures are the fastest of many
// repetitions: each op's fastest serial latency, and each parallel batch's
// fastest wall time.  setup_s alone sums each op's median set-up time.
// Each host-time figure is then scaled by the probe's speed (probe.go); the
// raw figure is printed beside it.
func (b *bench) endToEnd() {
	var ser serialStats
	var par parallelStats
	var probe hostProbe
	start := time.Now()
	for ser.sweeps == 0 || time.Since(start) < b.cfg.budget {
		b.sweepOnce(nil, &ser)
		probe.run()
		b.parallelSweep(&par)
	}
	speed := probe.speed()

	n := len(b.wl.ops)
	bestMS := make([]float64, n)
	var bestSum, batchSum time.Duration
	for i, d := range ser.best {
		bestMS[i] = seconds(d) * 1e3
		bestSum += d
	}
	for _, d := range par.best {
		batchSum += d
	}
	beyond := n - int(math.Ceil(0.9*float64(n)))
	scaled := func(name string, raw, factor float64, unit, note string) {
		b.set(name, raw*factor, unit)
		b.setInfo(name+".raw", raw, unit)
		b.note(name, fmt.Sprintf("%s; raw x %.4f host speed", note, factor))
	}
	scaled("ops_per_s", float64(n)/seconds(batchSum), 1/speed, "1/s",
		fmt.Sprintf("jobs=%d, %d ops / summed fastest wall time of each of %d batches over %d sweeps", b.cfg.jobs, n, len(par.best), par.sweeps))
	scaled("ops_per_s_serial", float64(n)/seconds(bestSum), 1/speed, "1/s",
		fmt.Sprintf("%d ops / summed fastest latency of each over %d sweeps", n, ser.sweeps))
	scaled("op_p50_ms", percentile(bestMS, 50), speed, "ms", "over the fastest latency of each op")
	scaled("op_p90_ms", percentile(bestMS, 90), speed, "ms",
		fmt.Sprintf("over the fastest latency of each of %d ops, %d beyond p90", n, beyond))
	setup := 0.0
	for _, xs := range ser.setupS {
		setup += median(xs)
	}
	scaled("setup_s", setup, speed, "s",
		fmt.Sprintf("summed over the %d ops of a sweep, each op's median over %d sweeps", n, ser.sweeps))
	b.setInfo("host.probe_us", float64(probe.fastest)/1e3, "us")
	b.note("host.probe_us", fmt.Sprintf("fastest probe run; %.0f us on the reference machine", float64(probeRef)/1e3))
	b.set("allocs_per_op", float64(ser.allocs)/float64(ser.ops), "count")
	b.set("alloc_kb_per_op", float64(ser.bytes)/float64(ser.ops)/1024, "KiB")
	if beyond < 10 {
		fmt.Fprintf(b.log, "hetccbench: only %d ops per sweep; op_p90_ms has fewer than 10 ops beyond it\n", n)
	}
	b.workloadRates(ser)
}

// workloadRates reports the figures that exist on only some workloads.  The
// end-to-end JSON carries the metrics every workload has, so these print
// here and in the traced run's per-layer JSON.
func (b *bench) workloadRates(ser serialStats) {
	set := b.set
	if !b.cfg.trace {
		set = b.setInfo
	}
	if b.wl.simOps != nil {
		set("sim_mcycles_per_s", float64(b.sweep.sim.cycles)/1e6/median(ser.sweepWorkS), "Mcycles/s")
		b.note("sim_mcycles_per_s", "simulated engine cycles per host second of Platform.Run")
		set("sim_cycles", float64(b.sweep.sim.cycles), "cycles")
		b.note("sim_cycles", "simulated engine cycles of one sweep, exact")
		set("states_per_s", 0, "1/s")
	} else {
		set("sim_mcycles_per_s", 0, "Mcycles/s")
		set("sim_cycles", 0, "cycles")
		set("states_per_s", float64(b.sweep.proof.states)/median(ser.sweepWorkS), "1/s")
		b.note("states_per_s", "explored states per host second of explore.Explore")
	}
}

// perLayer measures the per-layer metrics: serial sweeps alternating
// untraced and traced, the observability-cost pass (simulation workloads)
// and a parallel pass for the pool.
func (b *bench) perLayer() error {
	budget := b.cfg.budget
	costShare := 0.3
	if b.wl.simOps == nil {
		costShare = 0
	}
	var base, traced serialStats
	var overheadUS []float64 // traced minus untraced latency, same op, adjacent sweeps
	tr := newTracer()
	start := time.Now()
	for traced.sweeps == 0 || time.Since(start) < scale(budget, 0.7-costShare) {
		untracedLat := b.sweepOnce(nil, &base)
		for i, d := range b.sweepOnce(tr, &traced) {
			overheadUS = append(overheadUS, float64(d-untracedLat[i])/1e3)
		}
	}
	b.layerCosts(scale(budget, costShare))
	par := b.parallel(scale(budget, 0.3))

	b.workloadRates(base)
	layers := byLayer(tr.spans)
	medianOf := func(layer string, pick func(*layerStats) []float64) float64 {
		if ls := layers[layer]; ls != nil {
			return median(pick(ls))
		}
		return 0
	}
	self := func(ls *layerStats) []float64 { return ls.selfUS }
	for _, l := range []string{
		"workload.programs", "platform.build", "platform.load", "platform.run",
		"platform.report", "runner.digest", "core.reduce", "core.verify",
	} {
		b.set(l+"_us", medianOf(l, self), "us")
		b.note(l+"_us", "median self time per call")
	}
	b.set("workload.programs_kb", medianOf("workload.programs", func(ls *layerStats) []float64 { return ls.bytes })/1024, "KiB")
	b.set("platform.build_allocs", medianOf("platform.build", func(ls *layerStats) []float64 { return ls.allocs }), "count")
	b.set("explore.ms", medianOf("explore.explore", self)/1e3, "ms")

	runNS := 0.0
	if ls := layers["platform.run"]; ls != nil {
		runNS = ls.totalSelfS * 1e9
	}
	c, sw := traced.sim, b.sweep.sim
	b.set("sim.ns_per_pass", ratio(runNS, float64(c.passes)), "ns")
	b.set("cpu.ns_per_instr", ratio(runNS, float64(c.instructions)), "ns")
	b.set("sim.passes", float64(sw.passes), "count")
	b.set("sim.wakes", float64(sw.wakes), "count")
	skip := 0.0
	if sw.cycles > 0 {
		skip = 1 - float64(sw.passes)/float64(sw.cycles)
	}
	b.set("sim.skip_ratio", skip, "ratio")
	b.set("cpu.instructions", float64(sw.instructions), "count")
	b.set("cpu.stall_ratio", ratio(float64(sw.stallCycles), float64(sw.coreCycles)), "ratio")
	b.set("bus.tenures", float64(sw.tenures), "count")
	b.set("bus.retry_ratio", ratio(float64(sw.aborted), float64(sw.tenures)), "ratio")
	b.set("bus.busy_ratio", ratio(float64(sw.busBusy), float64(sw.busBusy+sw.busIdle)), "ratio")
	b.set("cache.accesses", float64(sw.accesses), "count")
	b.set("cache.hit_ratio", ratio(float64(sw.hits), float64(sw.accesses)), "ratio")
	b.set("cache.snoop_hits", float64(sw.snoopHits), "count")
	b.set("wrapper.conversions", float64(sw.conversions), "count")
	b.set("snooplogic.fiqs", float64(sw.fiqs), "count")
	b.set("snooplogic.spurious_ratio", ratio(float64(sw.spurious), float64(sw.fiqs)), "ratio")

	p := b.sweep.proof
	b.set("explore.states", float64(p.states), "count")
	b.set("explore.transitions", float64(p.transitions), "count")
	b.set("explore.frontier_peak", float64(p.frontierPeak), "count")

	b.set("runner.pool_busy_ratio", ratio(seconds(par.busy), float64(b.cfg.jobs)*seconds(par.wall)), "ratio")
	b.note("runner.pool_busy_ratio", fmt.Sprintf("summed op time / (%d jobs x batch wall)", b.cfg.jobs))

	b.set("bench.trace_overhead_us", median(overheadUS), "us")
	b.note("bench.trace_overhead_us", fmt.Sprintf("median over %d ops of traced minus untraced latency of the same op in adjacent sweeps; untraced median op %.1f us",
		len(overheadUS), median(base.opMS)*1e3))
	return writeSpans(b.cfg.spansPath, tr.spans)
}

// costBase names the base of every observability ratio.
const costBase = "base: Platform.Run of the same ops with every observability layer off, Verify on"

// layerCosts times Platform.Run of the workload's ops with each
// observability layer alone and with all of them on, against a bare run,
// interleaving the variants op by op so drift in host speed cancels.
func (b *bench) layerCosts(budget time.Duration) {
	type variant struct {
		prefix string // metric name prefix
		cfg    func(hetcc.Config) hetcc.Config
	}
	variants := []variant{{"bare", bare}}
	for _, l := range observabilityLayers {
		l := l
		variants = append(variants, variant{l.name + ".", func(c hetcc.Config) hetcc.Config {
			c = bare(c)
			l.on(&c)
			return c
		}})
	}
	variants = append(variants, variant{"observe.all_", func(c hetcc.Config) hetcc.Config { return allLayers(bare(c)) }})

	times := make([]time.Duration, len(variants))
	allocs := make([]uint64, len(variants))
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < budget; rounds++ {
		for _, o := range b.wl.simOps {
			for v, vr := range variants {
				d, a, err := b.runTimed(o, vr.cfg(o.cfg))
				if !b.record(o.label+"/"+vr.prefix, result{err: err}, "") {
					continue
				}
				times[v] += d
				allocs[v] += a
			}
		}
	}
	note := costBase
	if len(b.wl.simOps) == 0 {
		note = "0: the workload runs no simulations"
	}
	for v, vr := range variants[1:] {
		b.set(vr.prefix+"run_ratio", ratio(float64(times[v+1]), float64(times[0])), "ratio")
		b.note(vr.prefix+"run_ratio", note)
		b.set(vr.prefix+"allocs_ratio", ratio(float64(allocs[v+1]), float64(allocs[0])), "ratio")
		b.note(vr.prefix+"allocs_ratio", note)
	}
}

// runTimed builds cfg untimed, then times Platform.Run and counts its heap
// allocations.
func (b *bench) runTimed(o *simOp, cfg hetcc.Config) (time.Duration, uint64, error) {
	v := &simOp{label: o.label, cfg: cfg}
	p, err := v.build(nil)
	if err != nil {
		return 0, 0, err
	}
	a0, _ := heapCounters()
	start := time.Now()
	res := p.Run(maxCycles)
	d := time.Since(start)
	a1, _ := heapCounters()
	return d, a1 - a0, v.check(res)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
