package main

import "time"

// The host-speed probe.  The reference machine is a 2-vCPU guest on a
// shared host whose core clock steps up and down with the host's load, by
// 3% steps and by up to 1.35× over minutes, and whose cores other tenants
// contend for.  Best-of timing removes short spells of contention but not
// a slower clock that lasts a whole run.  So each run also times a fixed
// probe: a branchy, table-driven integer loop over 64 KiB, like the
// simulator's work but no part of hetcc, so no change to hetcc moves it.
// The host-time metrics, the parallel rate too, are scaled by the probe's
// fastest time against probeRef, its fastest time on the reference machine
// at the usual clock: they read as they would on that machine, and a
// change to hetcc moves them as it moves the raw figures, which are
// printed beside them.

// probeRef is the probe's fastest time on the reference machine.  It fixes
// the unit of the scaled metrics; changing it rescales every later figure,
// so it stays as it is.
const probeRef = 350 * time.Microsecond

// probeReps is how many probe runs follow each serial sweep.
const probeReps = 8

// probeTable is the probe's 64 KiB of xorshift words.
var probeTable = func() []uint32 {
	t := make([]uint32, 1<<14)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// probeKernel is the probe's work; its result keeps the loop from being
// optimised away.
func probeKernel() uint32 {
	x, acc := uint32(1), uint32(0)
	for i := 0; i < 40000; i++ {
		v := probeTable[x&(1<<14-1)]
		switch v & 3 {
		case 0:
			acc += v
			x = v ^ (x >> 3)
		case 1:
			acc ^= x
			x = x*2654435761 + v
		case 2:
			x += v>>2 + 1
		default:
			acc -= x
			x = v + acc
		}
	}
	return acc
}

// probeSink holds the probe's results.
var probeSink uint32

// hostProbe keeps the fastest probe time of a run.
type hostProbe struct {
	fastest time.Duration
}

// run times probeReps runs of the probe.
func (h *hostProbe) run() {
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		probeSink += probeKernel()
		if d := time.Since(start); h.fastest == 0 || d < h.fastest {
			h.fastest = d
		}
	}
}

// speed returns how much faster than the reference machine this run's
// host ran.
func (h *hostProbe) speed() float64 {
	return float64(probeRef) / float64(h.fastest)
}
