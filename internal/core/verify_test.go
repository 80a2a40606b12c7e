package core

import (
	"testing"

	"hetcc/internal/coherence"
)

func passthrough(n int) []WrapperPolicy {
	return make([]WrapperPolicy, n)
}

// unwired models the un-integrated heterogeneous bus: no master ever
// samples an asserted shared signal (the conventions are incompatible) and
// interventions are off.
func unwired(n int) []WrapperPolicy {
	out := make([]WrapperPolicy, n)
	for i := range out {
		out[i] = WrapperPolicy{Shared: SharedForceDeassert}
	}
	return out
}

// TestVerifyHomogeneousProtocolsAreCoherent: every protocol is coherent
// with itself under passthrough wrappers.
func TestVerifyHomogeneousProtocolsAreCoherent(t *testing.T) {
	for _, k := range []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI} {
		res, err := Verify([]coherence.Kind{k, k}, passthrough(2), k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("homogeneous %v: %v", k, res.Violations[0])
		}
	}
	// Homogeneous MOESI needs cache-to-cache allowed.
	pols := []WrapperPolicy{{AllowCacheToCache: true}, {AllowCacheToCache: true}}
	res, err := Verify([]coherence.Kind{coherence.MOESI, coherence.MOESI}, pols, coherence.MOESI)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("homogeneous MOESI: %v", res.Violations[0])
	}
	if !containsState(res.Reachable[0], coherence.Owned) {
		t.Error("homogeneous MOESI never reached O")
	}
}

// TestVerifyTable2Defect: MEI+MESI without integration produces the exact
// staleness of the paper's Table 2.
func TestVerifyTable2Defect(t *testing.T) {
	res, err := Verify([]coherence.Kind{coherence.MESI, coherence.MEI}, unwired(2), coherence.MESI)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation found in un-integrated MEI+MESI")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == "stale-read" && v.Processor == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale-read at the MESI processor; got %v", res.Violations)
	}
}

// TestVerifyTable3Defect: MSI+MESI without integration is also stale.
func TestVerifyTable3Defect(t *testing.T) {
	res, err := Verify([]coherence.Kind{coherence.MSI, coherence.MESI}, unwired(2), coherence.MSI)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation found in un-integrated MSI+MESI")
	}
}

// TestVerifyAllMixesSoundWithReduction is the paper's Section 2 soundness
// claim, model-checked: for every heterogeneous pair, the wrapper policies
// from Reduce eliminate both staleness and out-of-protocol states.
func TestVerifyAllMixesSoundWithReduction(t *testing.T) {
	kinds := []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI}
	for _, a := range kinds {
		for _, b := range kinds {
			protos := []coherence.Kind{a, b}
			integ, err := Reduce(protos)
			if err != nil {
				t.Fatalf("Reduce(%v,%v): %v", a, b, err)
			}
			res, err := Verify(protos, integ.Policies, integ.Effective)
			if err != nil {
				t.Fatalf("Verify(%v,%v): %v", a, b, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%v+%v: %v", a, b, v)
			}
			if res.Explored == 0 {
				t.Errorf("%v+%v explored nothing", a, b)
			}
		}
	}
}

// TestVerifyStateElimination checks the specific claims of Sections
// 2.1–2.3: which states become unreachable under each integration.
func TestVerifyStateElimination(t *testing.T) {
	check := func(protos []coherence.Kind, proc int, state coherence.State) {
		t.Helper()
		integ, err := Reduce(protos)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Verify(protos, integ.Policies, integ.Effective)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Eliminated(proc, state) {
			t.Errorf("%v: P%d still reaches %v (reachable %v)", protos, proc, state, res.Reachable[proc])
		}
	}
	// 2.1: MEI mixes eliminate S at the MESI/MOESI processor.
	check([]coherence.Kind{coherence.MEI, coherence.MESI}, 1, coherence.Shared)
	check([]coherence.Kind{coherence.MEI, coherence.MOESI}, 1, coherence.Shared)
	check([]coherence.Kind{coherence.MEI, coherence.MOESI}, 1, coherence.Owned)
	// 2.2: MSI mixes eliminate E (and O).
	check([]coherence.Kind{coherence.MSI, coherence.MESI}, 1, coherence.Exclusive)
	check([]coherence.Kind{coherence.MSI, coherence.MOESI}, 1, coherence.Exclusive)
	check([]coherence.Kind{coherence.MSI, coherence.MOESI}, 1, coherence.Owned)
	// 2.3: MESI+MOESI eliminates O (cache-to-cache prohibited).
	check([]coherence.Kind{coherence.MESI, coherence.MOESI}, 1, coherence.Owned)
}

// TestVerifyMESIPlusMOESIKeepsSharing: the 2.3 integration still allows the
// I→S path — it reduces to MESI, not MEI.
func TestVerifyMESIPlusMOESIKeepsSharing(t *testing.T) {
	protos := []coherence.Kind{coherence.MESI, coherence.MOESI}
	integ, err := Reduce(protos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(protos, integ.Policies, integ.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if !containsState(res.Reachable[0], coherence.Shared) {
		t.Errorf("MESI processor never reached S; integration over-reduced to MEI (reachable %v)", res.Reachable[0])
	}
}

// TestVerifyThreeWayMix: a triple-protocol system reduces soundly too.
func TestVerifyThreeWayMix(t *testing.T) {
	protos := []coherence.Kind{coherence.MEI, coherence.MESI, coherence.MOESI}
	integ, err := Reduce(protos)
	if err != nil {
		t.Fatal(err)
	}
	if integ.Effective != coherence.MEI {
		t.Fatalf("effective %v, want MEI", integ.Effective)
	}
	res, err := Verify(protos, integ.Policies, integ.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("three-way mix: %v", res.Violations[0])
	}
}

func TestVerifyInputValidation(t *testing.T) {
	if _, err := Verify(nil, nil, coherence.MEI); err == nil {
		t.Error("empty processor list accepted")
	}
	if _, err := Verify([]coherence.Kind{coherence.MEI}, nil, coherence.MEI); err == nil {
		t.Error("mismatched policy count accepted")
	}
	if _, err := Verify([]coherence.Kind{coherence.None}, passthrough(1), coherence.MEI); err == nil {
		t.Error("None processor accepted")
	}
	if _, err := Verify([]coherence.Kind{coherence.MEI}, passthrough(1), coherence.None); err == nil {
		t.Error("None effective protocol accepted")
	}
	if _, err := Verify(make([]coherence.Kind, ModelMasters+1), make([]WrapperPolicy, ModelMasters+1), coherence.MEI); err == nil {
		t.Error("too many processors accepted")
	}
	unknown := coherence.Kind(42)
	if _, err := Verify([]coherence.Kind{coherence.MESI, unknown}, passthrough(2), coherence.MESI); err == nil {
		t.Error("unknown processor protocol accepted")
	}
	if _, err := Verify([]coherence.Kind{coherence.MESI, coherence.MEI}, passthrough(2), unknown); err == nil {
		t.Error("unknown effective protocol accepted")
	}
	if _, err := (Model{Masters: []ModelMaster{{Protocol: coherence.MESI}, {Protocol: unknown}}}).Search(); err == nil {
		t.Error("model search accepted an unknown protocol")
	}
}

// TestVerifyViolationHasWitnessTrace: violations must carry a replayable
// event trace.
func TestVerifyViolationHasWitnessTrace(t *testing.T) {
	res, err := Verify([]coherence.Kind{coherence.MESI, coherence.MEI}, unwired(2), coherence.MESI)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		if len(v.Trace) == 0 {
			t.Errorf("violation %v has empty trace", v.Kind)
		}
		if v.String() == "" {
			t.Error("violation renders empty")
		}
	}
}

func containsState(states []coherence.State, s coherence.State) bool {
	for _, st := range states {
		if st == s {
			return true
		}
	}
	return false
}

// TestVerifyHomogeneousDragon: the update-based protocol is coherent in a
// homogeneous system, reaches its Sm state, and keeps sharers valid.
func TestVerifyHomogeneousDragon(t *testing.T) {
	protos := []coherence.Kind{coherence.Dragon, coherence.Dragon}
	integ, err := Reduce(protos)
	if err != nil {
		t.Fatal(err)
	}
	if integ.Effective != coherence.Dragon {
		t.Fatalf("effective %v", integ.Effective)
	}
	for i, p := range integ.Policies {
		if !p.AllowCacheToCache {
			t.Fatalf("P%d denied c2c", i)
		}
	}
	res, err := Verify(protos, integ.Policies, integ.Effective)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("dragon violations: %v", res.Violations[0])
	}
	if !containsState(res.Reachable[0], coherence.Owned) {
		t.Fatal("Sm never reached")
	}
	// Crucially, both processors can hold the line simultaneously with one
	// of them dirty — the update-based signature.
	if !containsState(res.Reachable[0], coherence.Shared) {
		t.Fatal("Sc never reached")
	}
}

// TestReduceRejectsDragonMixes: the paper's wrapper method covers
// invalidation-based protocols only.
func TestReduceRejectsDragonMixes(t *testing.T) {
	bad := [][]coherence.Kind{
		{coherence.Dragon, coherence.MESI},
		{coherence.MEI, coherence.Dragon},
		{coherence.Dragon, coherence.MOESI},
		{coherence.Dragon, coherence.None}, // PF2 with Dragon: also out of scope
	}
	for _, protos := range bad {
		if _, err := Reduce(protos); err == nil {
			t.Errorf("Reduce(%v) accepted an update-based mix", protos)
		}
	}
}

// TestVerifyIgnoredOpGoesStale: a passthrough Dragon+MESI system presents
// the MESI snooper a BusUpd outside its protocol.  The snooper ignores it,
// its copy goes stale, and Verify reports the resulting violations instead
// of panicking.
func TestVerifyIgnoredOpGoesStale(t *testing.T) {
	res, err := Verify([]coherence.Kind{coherence.Dragon, coherence.MESI}, passthrough(2), coherence.MESI)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == CheckStaleRead && v.Processor == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale read at the MESI processor; got %v", res.Violations)
	}
}
