package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer's public function, recorded from the
// benchmark's side of the call.  Spans of one op share op; parent is the
// index of the enclosing span in the tracer, or -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Label  string `json:"label,omitempty"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs and Bytes are the heap allocations made between Start and End.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// tracer keeps spans in memory until the run ends.  It serves one goroutine:
// the traced pass is serial.  A nil *tracer records nothing, so the untraced
// passes run the same op code.
type tracer struct {
	epoch time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp starts the root span of a new op.
func (t *tracer) beginOp(label string) int {
	if t == nil {
		return -1
	}
	t.op++
	id := t.begin("op")
	t.spans[id].Label = label
	return id
}

// begin opens a span for layer under the innermost open span.
func (t *tracer) begin(layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	objects, bytes := heapCounters()
	t.spans = append(t.spans, span{
		Op: t.op, ID: id, Parent: parent, Layer: layer,
		Allocs: objects, Bytes: bytes,
		Start: int64(time.Since(t.epoch)),
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	objects, bytes := heapCounters()
	s.Allocs = objects - s.Allocs
	s.Bytes = bytes - s.Bytes
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.  Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [start, end).
func covered(start, end int64, intervals [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(intervals))
	for _, iv := range intervals {
		lo, hi := max(iv[0], start), min(iv[1], end)
		if lo < hi {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a][0] < clipped[b][0] })
	var total, reach int64 = 0, start
	for _, iv := range clipped {
		lo := max(iv[0], reach)
		if iv[1] > lo {
			total += iv[1] - lo
			reach = iv[1]
		}
	}
	return total
}

// layerStats summarises the spans of one layer.
type layerStats struct {
	selfUS     []float64 // self time per call, microseconds
	allocs     []float64 // heap allocations per call
	bytes      []float64 // heap bytes per call
	totalSelfS float64
}

// byLayer groups span self times and allocations by layer name.
func byLayer(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for i, s := range spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			out[s.Layer] = ls
		}
		us := float64(self[i]) / 1e3
		ls.selfUS = append(ls.selfUS, us)
		ls.totalSelfS += us / 1e6
		ls.allocs = append(ls.allocs, float64(s.Allocs))
		ls.bytes = append(ls.bytes, float64(s.Bytes))
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
