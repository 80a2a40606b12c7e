package platform_test

import (
	"testing"

	. "hetcc/internal/platform"
	"hetcc/internal/workload"
)

// TestAllocsBuild is a ceiling on set-up allocations: building the paper's
// PF2 platform (PowerPC755 + ARM920T, proposed solution, golden-model
// checker on) and generating its default WCS programs.  Each cache is three
// allocations and each program one, so the count no longer grows with the
// number of cache lines (about 1,400 on PF2).  Measured at 104 allocs/op;
// the ceiling leaves about 50% headroom for incidental set-up changes.
func TestAllocsBuild(t *testing.T) {
	const ceiling = 156
	cfg := Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	}
	var err error
	got := testing.AllocsPerRun(20, func() {
		if _, err = Build(cfg); err != nil {
			return
		}
		_, err = workload.Programs(workload.WCS, workload.Params{}, cfg.Solution, len(cfg.Processors))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PF2 WCS build+programs: %.0f allocs/op (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("PF2 WCS build+programs: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}
