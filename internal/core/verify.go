package core

import (
	"fmt"
	"slices"
	"strings"

	"hetcc/internal/coherence"
)

// SnoopOp applies the wrapper's read-to-write conversion to the bus
// operation op as observed by this processor's snoop port.
func (p WrapperPolicy) SnoopOp(op coherence.BusOp) coherence.BusOp {
	if p.ConvertReadToWrite && op == coherence.BusRd {
		return coherence.BusRdX
	}
	return op
}

// ApplyShared applies the wrapper's shared-signal override to the value
// sampled by this processor's master port.
func (p WrapperPolicy) ApplyShared(shared bool) bool {
	switch p.Shared {
	case SharedForceAssert:
		return true
	case SharedForceDeassert:
		return false
	default:
		return shared
	}
}

// Violation is a coherence defect found by Verify: either a processor
// entered a state outside the reduced protocol, or a read observed stale
// data (the paper's Tables 2 and 3 failure mode).
type Violation struct {
	// Kind is "stale-read", "stale-fill", "stale-write" or
	// "illegal-state".
	Kind string
	// Processor is the index of the offending processor.
	Processor int
	// State is the processor's line state at the violation.
	State coherence.State
	// Trace is the event sequence from the initial state.
	Trace []string
}

// String renders the violation with its witness trace.
func (v Violation) String() string {
	return fmt.Sprintf("%s at P%d (state %v) after [%s]", v.Kind, v.Processor, v.State, strings.Join(v.Trace, "; "))
}

// VerifyResult is the output of the exhaustive single-line model check.
type VerifyResult struct {
	// Reachable[i] is the set of states processor i's copy of the line was
	// observed in, sorted.
	Reachable [][]coherence.State
	// Violations lists every distinct defect found (empty means the
	// configuration is coherent and respects the reduction).
	Violations []Violation
	// Explored is the number of distinct abstract states visited.
	Explored int
}

// Eliminated reports whether state s was proven unreachable for processor i.
func (r VerifyResult) Eliminated(i int, s coherence.State) bool {
	return !slices.Contains(r.Reachable[i], s)
}

// Verify exhaustively explores every interleaving of read/write/evict
// events on a single cache line across the given coherent processors with
// the given wrapper policies, checking that
//
//  1. no processor enters a state outside AllowedStates(native, effective),
//  2. every read (hit or fill) returns the globally newest value, and no
//     write lands in a stale copy.
//
// Running it with passthrough policies on a heterogeneous mix reproduces
// the staleness defects of the paper's Tables 2 and 3; running it with the
// policies from Reduce proves the wrapper scheme sound for that mix.  It is
// a search of the shared abstract Model with no TAG-CAM masters, reporting
// the four checks above; a snooper presented with an op outside its
// protocol ignores it, and the stale copy surfaces as a violation.
func Verify(protocols []coherence.Kind, policies []WrapperPolicy, effective coherence.Kind) (VerifyResult, error) {
	if len(policies) != len(protocols) {
		return VerifyResult{}, fmt.Errorf("core: %d policies for %d processors", len(policies), len(protocols))
	}
	if effective == coherence.None || !effective.Known() {
		return VerifyResult{}, fmt.Errorf("core: verify needs a coherent effective protocol, got %v", effective)
	}
	m := Model{Masters: make([]ModelMaster, len(protocols)), Snooping: true}
	for i, k := range protocols {
		if k == coherence.None || !k.Known() {
			return VerifyResult{}, fmt.Errorf("core: verify models coherent processors only (P%d is %v)", i, k)
		}
		m.Masters[i] = ModelMaster{Protocol: k, Policy: policies[i], Allowed: AllowedStates(k, effective)}
	}
	c, err := m.Search()
	if err != nil {
		return VerifyResult{}, err
	}
	res := VerifyResult{Reachable: c.Reachable, Explored: c.States}
	for _, v := range c.Violations {
		switch v.Check {
		case CheckStaleRead, CheckStaleFill, CheckStaleWrite, CheckIllegalState:
			res.Violations = append(res.Violations, Violation{Kind: v.Check, Processor: v.Master, State: v.State, Trace: v.PathNames()})
		}
	}
	return res, nil
}
