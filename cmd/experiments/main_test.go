package main

import (
	"bytes"
	"strings"
	"testing"

	"hetcc"
)

// TestSmoke drives the table and figure generators in-process with a
// one-point figure sweep and checks that each emits its table.
func TestSmoke(t *testing.T) {
	opts := hetcc.FigureOptions{ExecTimes: []int{1}, LineCounts: []int{2}, Iterations: 2, Verify: true, Jobs: 1}
	for _, c := range []struct {
		header string
		run    func(*bytes.Buffer) error
	}{
		{"Table 1: heterogeneous platform classes", func(b *bytes.Buffer) error { return table1(b) }},
		{"Table 2: MEI + MESI integration", func(b *bytes.Buffer) error { return table23(b, 2) }},
		{"Table 4: simulation environment", func(b *bytes.Buffer) error { return table4(b) }},
		{"Figure 5: worst-case scenario", func(b *bytes.Buffer) error { return figure(b, 5, opts) }},
	} {
		var b bytes.Buffer
		if err := c.run(&b); err != nil {
			t.Fatalf("%s: %v", c.header, err)
		}
		if !strings.Contains(b.String(), c.header) {
			t.Errorf("output lacks %q:\n%s", c.header, b.String())
		}
	}
	if n := len(report.Figures["figure5"]); n != 1 {
		t.Errorf("figure 5 recorded %d points, want 1", n)
	}
}
