package core

import (
	"testing"

	"hetcc/internal/coherence"
)

// TestAllocsVerify pins Verify on the wrapped MESI+MOESI+MSI system.  The
// search allocates only for growth of its own tables, the result and the
// first sighting of each violation — never per edge.  The ceiling is the
// count measured with go1.24 (42) plus about 50% headroom for map-growth
// differences between toolchains; a per-edge allocation multiplies the count
// many times over and fails here.
func TestAllocsVerify(t *testing.T) {
	protos := []coherence.Kind{coherence.MESI, coherence.MOESI, coherence.MSI}
	integ, err := Reduce(protos)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 65
	got := testing.AllocsPerRun(10, func() { _, err = Verify(protos, integ.Policies, integ.Effective) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v: %.0f allocs/op (ceiling %d)", protos, got, ceiling)
	if got > ceiling {
		t.Errorf("%v: %.0f allocs/op, ceiling %d", protos, got, ceiling)
	}
}
