package cache

import (
	"fmt"
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/memory"
)

// storageWord is the distinct value line number n holds in word w.
func storageWord(n, w int) uint32 { return uint32(n+1)<<16 | uint32(w+1) }

// fillAll installs a distinct Modified line in every way of every set of c,
// writing each word through Data, and returns the line addresses in fill
// order.  Address n*LineBytes maps to set n%Sets, so the first Sets
// addresses fill way 0 of every set, the next Sets way 1, and so on.
func fillAll(t *testing.T, c *Cache) []uint32 {
	t.Helper()
	cfg := c.Config()
	addrs := make([]uint32, cfg.Sets()*cfg.Ways)
	for n := range addrs {
		addr := uint32(n * cfg.LineBytes)
		v := c.Victim(addr)
		if v == nil || v.State != coherence.Invalid {
			t.Fatalf("%+v: no free way for line %d", cfg, n)
		}
		l := c.Install(addr, make([]uint32, cfg.WordsPerLine()), coherence.Modified, v)
		d := c.Data(l)
		for w := range d {
			d[w] = storageWord(n, w)
		}
		addrs[n] = addr
	}
	return addrs
}

// TestStorageIsolation: with every line of the array valid and holding
// distinct words, each line reads back exactly its own words, and a line's
// Data view is capped at the line so an append cannot spill into the next
// line of the shared data slab.
func TestStorageIsolation(t *testing.T) {
	for _, lb := range []int{16, 32, 64} {
		for _, ways := range []int{1, 2, 4, 8} {
			cfg := Config{SizeBytes: 8 * ways * lb, Ways: ways, LineBytes: lb}
			t.Run(fmt.Sprintf("line%d_ways%d", lb, ways), func(t *testing.T) {
				c := mustCache(t, cfg, coherence.MESI)
				addrs := fillAll(t, c)
				if got := len(c.ResidentLines()); got != len(addrs) {
					t.Fatalf("%d resident lines, want %d", got, len(addrs))
				}
				for n, addr := range addrs {
					l := c.Lookup(addr)
					if l == nil {
						t.Fatalf("line %d (0x%x) not resident", n, addr)
					}
					d := c.Data(l)
					if len(d) != cfg.WordsPerLine() || cap(d) != cfg.WordsPerLine() {
						t.Fatalf("line %d: len %d cap %d, want %d", n, len(d), cap(d), cfg.WordsPerLine())
					}
					for w := range d {
						if d[w] != storageWord(n, w) {
							t.Fatalf("line %d word %d = %#x, want %#x", n, w, d[w], storageWord(n, w))
						}
						if got, ok := c.PeekWord(addr + uint32(4*w)); !ok || got != d[w] {
							t.Fatalf("line %d word %d: PeekWord %#x,%v", n, w, got, ok)
						}
					}
					_ = append(d, 0xdeadbeef)
				}
				// The appends above must have copied, leaving every
				// neighbour intact.
				for n, addr := range addrs {
					d := c.Data(c.Lookup(addr))
					for w := range d {
						if d[w] != storageWord(n, w) {
							t.Fatalf("after append: line %d word %d = %#x", n, w, d[w])
						}
					}
				}
			})
		}
	}
}

// TestSnoopSupplyReturnsSupplierWords: a MOESI cache-to-cache supply hands
// out the supplier's live slab storage; with every line of the supplier
// dirty and distinct, the snoop reply and the requester's filled line carry
// exactly the supplied line's words, never a neighbour's.
func TestSnoopSupplyReturnsSupplierWords(t *testing.T) {
	for _, lb := range []int{16, 32, 64} {
		t.Run(fmt.Sprintf("line%d", lb), func(t *testing.T) {
			cfg := Config{SizeBytes: 8 * 2 * lb, Ways: 2, LineBytes: lb}
			b := bus.New(bus.Config{Timing: memory.DefaultTiming()}, memory.New(), nil)
			newCtl := func(name string) *Controller {
				arr, err := New(cfg, coherence.New(coherence.MOESI))
				if err != nil {
					t.Fatal(err)
				}
				return NewController(name, arr, b, nil, true, nil)
			}
			r := &rig{t: t, bus: b, ctl: []*Controller{newCtl("c0"), newCtl("c1")}}
			sup := r.ctl[0].Cache()
			addrs := fillAll(t, sup)

			// Snoop port directly: the reply aliases the slab and carries
			// the right line.
			probe := bus.Transaction{Master: 1, Kind: bus.ReadLine, Addr: addrs[3], Words: cfg.WordsPerLine()}
			reply := r.ctl[0].SnoopBus(&probe)
			if !reply.Supply {
				t.Fatalf("M line not supplied: %+v", reply)
			}
			if len(reply.Data) != cfg.WordsPerLine() || &reply.Data[0] != &sup.Data(sup.Lookup(addrs[3]))[0] {
				t.Fatal("supply reply does not alias the supplier's line storage")
			}
			for w, got := range reply.Data {
				if got != storageWord(3, w) {
					t.Fatalf("reply word %d = %#x, want %#x", w, got, storageWord(3, w))
				}
			}

			// Over the bus: every line the requester reads is served by
			// the supplier with that line's words.
			for n, addr := range addrs {
				for w := 0; w < cfg.WordsPerLine(); w++ {
					if got := r.access(1, false, addr+uint32(4*w), 0); got != storageWord(n, w) {
						t.Fatalf("line %d word %d read %#x, want %#x", n, w, got, storageWord(n, w))
					}
				}
			}
			if b.Stats().Supplied == 0 {
				t.Fatal("no cache-to-cache supply happened")
			}
		})
	}
}
