package explore

import (
	"testing"

	"hetcc/internal/coherence"
)

// The search allocates only for growth of its own tables (visited map, state
// and parent slices), for the Result, and for the path and trace of each
// first-seen violation — never per edge.  Each ceiling is the count measured
// with go1.24 plus about 50% headroom for map-growth differences between
// toolchains; a per-edge allocation on the search path multiplies the count
// many times over and fails here.

// TestAllocsExploreCleanSweep pins a violation-free wrapped 3-master sweep
// (measured: 50 allocs).
func TestAllocsExploreCleanSweep(t *testing.T) {
	cfg := Config{Protocols: []coherence.Kind{coherence.MESI, coherence.MOESI, coherence.MSI}, Mode: ModeWrapped}
	assertExploreAllocs(t, cfg, 75)
}

// TestAllocsExploreViolationSweep pins a violation-heavy no-snoop 3-master
// sweep, where every repeat sighting of a violation must cost no allocation
// (measured: 801 allocs, nearly all the paths and traces of the first
// sightings).
func TestAllocsExploreViolationSweep(t *testing.T) {
	cfg := Config{Protocols: []coherence.Kind{coherence.MEI, coherence.None, coherence.MESI}, Mode: ModeNoSnoop}
	assertExploreAllocs(t, cfg, 1300)
}

func assertExploreAllocs(t *testing.T, cfg Config, ceiling float64) {
	t.Helper()
	var err error
	got := testing.AllocsPerRun(10, func() { _, err = Explore(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v %v: %.0f allocs/op (ceiling %.0f)", cfg.Protocols, cfg.Mode, got, ceiling)
	if got > ceiling {
		t.Errorf("%v %v: %.0f allocs/op, ceiling %.0f", cfg.Protocols, cfg.Mode, got, ceiling)
	}
}
