package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hetcc/internal/explore"
)

// TestExploreMatrixProves runs the -explore matrix in process with a budget
// far above its cost: every wrapped pair must be proved, the unwired
// controls must find defects, and the report must carry the census rate and
// the PROVED summary line.
func TestExploreMatrixProves(t *testing.T) {
	var out bytes.Buffer
	if err := exploreMatrix(&out, "", 5*time.Minute, explore.DefaultMaxStates); err != nil {
		t.Fatalf("exploreMatrix: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"states/s, ",
		"transitions/s)",
		"all wrapped product FSMs PROVED coherent over every reachable state",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}
