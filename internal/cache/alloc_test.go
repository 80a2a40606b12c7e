package cache

import (
	"testing"

	"hetcc/internal/coherence"
)

// TestAllocsCacheNew pins the storage layout: New allocates the Cache, one
// metadata slab and one data slab, whatever the geometry.  A per-line
// allocation would make the count grow with sets × ways (512 lines for the
// 16 KB/64-way array, 1024 for the 32 KB/8-way one).
func TestAllocsCacheNew(t *testing.T) {
	const want = 3
	proto := coherence.New(coherence.MESI)
	for _, cfg := range []Config{
		{SizeBytes: 16 * 1024, Ways: 64, LineBytes: 32}, // ARM920T
		{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 32},  // PowerPC755
	} {
		var err error
		got := testing.AllocsPerRun(20, func() { _, err = New(cfg, proto) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v: %.0f allocs/op", cfg, got)
		if got != want {
			t.Errorf("%+v: %.0f allocs/op, want %d", cfg, got, want)
		}
	}
}
