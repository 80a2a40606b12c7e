package core

import (
	"errors"
	"strings"
	"testing"

	"hetcc/internal/coherence"
)

// reducedModel builds the wrapped model of kinds: Reduce's policies, the
// reduction table as each master's allowed set, TAG-CAM snoop logic for
// coherence-less masters.
func reducedModel(t *testing.T, kinds ...coherence.Kind) Model {
	t.Helper()
	integ, err := Reduce(kinds)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Snooping: true, Strict: true}
	for i, k := range kinds {
		m.Masters = append(m.Masters, ModelMaster{Protocol: k, Policy: integ.Policies[i], Allowed: AllowedStates(k, integ.Effective)})
	}
	return m
}

// passthroughModel builds a snooping model of kinds with the given policy on
// every master and each master's native states allowed.
func passthroughModel(pol WrapperPolicy, kinds ...coherence.Kind) Model {
	m := Model{Snooping: true}
	for _, k := range kinds {
		m.Masters = append(m.Masters, ModelMaster{Protocol: k, Policy: pol, Allowed: AllowedStates(k, k)})
	}
	return m
}

// searchLabels runs m with a Visit hook and returns the census and every
// edge label, checking that Visit sees the states in discovery order.
func searchLabels(t *testing.T, m Model) (*Census, string) {
	t.Helper()
	var labels []string
	next := int32(0)
	edges := 0
	m.Visit = func(id int32, _ LineState, es []Edge) error {
		if id != next {
			t.Fatalf("visited state %d, want %d: not discovery order", id, next)
		}
		next++
		for _, e := range es {
			labels = append(labels, e.Label)
		}
		edges += len(es)
		return nil
	}
	c, err := m.Search()
	if err != nil {
		t.Fatal(err)
	}
	if edges != c.Transitions {
		t.Errorf("visited %d edges, census counts %d transitions", edges, c.Transitions)
	}
	return c, strings.Join(labels, "\n")
}

func TestModelSearchLabelsSnoopReactions(t *testing.T) {
	for _, c := range []struct {
		name        string
		model       Model
		want, never []string
	}{
		// PF2: the TAG-CAM ISR drains a dirty copy, invalidates a clean one,
		// and takes a spurious hit on an entry a clean drop left behind.
		{"MEI+none", reducedModel(t, coherence.MEI, coherence.None), []string{"P1:isr-drain", "P1:isr-inval", "P1:isr-spurious", "P0.ev wb", "P0.ev silent"}, nil},
		// Section 2.1: the MESI snooper sees reads as writes.
		{"MEI+MESI", reducedModel(t, coherence.MEI, coherence.MESI), []string{"~conv", "BusRdX"}, nil},
		// Homogeneous MOESI keeps cache-to-cache supply.
		{"MOESI+MOESI", reducedModel(t, coherence.MOESI, coherence.MOESI), []string{"~supply", "~shd", "BusUpgr"}, nil},
		// Homogeneous Dragon: bus updates, with the miss-then-update label.
		{"Dragon+Dragon", reducedModel(t, coherence.Dragon, coherence.Dragon), []string{"~upd", "P0.wr BusUpd", "P0.wr BusRd+BusUpd", "P0.wr hit"}, nil},
		// Supply denied: the owner flushes instead.
		{"MOESI+MOESI no c2c", passthroughModel(WrapperPolicy{}, coherence.MOESI, coherence.MOESI), []string{"~flush"}, []string{"~supply"}},
	} {
		res, labels := searchLabels(t, c.model)
		if c.model.Strict && len(res.Violations) != 0 {
			t.Errorf("%s: reduced system violates %+v", c.name, res.Violations[0])
		}
		for _, w := range c.want {
			if !strings.Contains(labels, w) {
				t.Errorf("%s: no edge label contains %q", c.name, w)
			}
		}
		for _, w := range c.never {
			if strings.Contains(labels, w) {
				t.Errorf("%s: an edge label contains %q", c.name, w)
			}
		}
	}
}

// TestModelWithoutSnooping: with no snooping hardware no bus transaction
// reaches another master, so the MESI copy goes stale and the coherence-less
// master has no TAG CAM to mirror.
func TestModelWithoutSnooping(t *testing.T) {
	m := passthroughModel(WrapperPolicy{}, coherence.MESI, coherence.None)
	m.Snooping = false
	c, labels := searchLabels(t, m)
	if strings.Contains(labels, "[") {
		t.Errorf("a snoop reaction fired without snooping hardware:\n%s", labels)
	}
	stale := false
	for _, v := range c.Violations {
		stale = stale || v.Check == CheckStaleRead
		if v.Check == CheckCAMMirror {
			t.Errorf("cam-mirror checked without snoop logic: %+v", v)
		}
	}
	if !stale {
		t.Error("no stale read without snooping")
	}
}

// TestModelReplay: replaying a violation's path re-executes the search's
// step function, one labelled step per action, ending in a state that
// exposes the breach.
func TestModelReplay(t *testing.T) {
	c, err := passthroughModel(WrapperPolicy{Shared: SharedForceDeassert}, coherence.MESI, coherence.MEI).Search()
	if err != nil {
		t.Fatal(err)
	}
	var v *ModelViolation
	for i := range c.Violations {
		if c.Violations[i].Check == CheckStaleRead {
			v = &c.Violations[i]
			break
		}
	}
	if v == nil {
		t.Fatalf("no stale read in un-integrated MESI+MEI: %+v", c.Violations)
	}
	names := v.PathNames()
	var last LineState
	steps := 0
	c.Replay(v.Path, func(label string, s LineState) {
		if !strings.HasPrefix(label, names[steps]+" ") {
			t.Errorf("step %d label %q, want action %s", steps, label, names[steps])
		}
		steps++
		last = s
	})
	if steps != len(v.Path) {
		t.Fatalf("replayed %d steps of %d", steps, len(v.Path))
	}
	if last.Cache[v.Master] != v.State || last.Fresh[v.Master] {
		t.Errorf("replay ends with P%d %v fresh=%v, want a stale %v", v.Master, last.Cache[v.Master], last.Fresh[v.Master], v.State)
	}
}

// TestModelMaxStates: a bound below the reachable set drops successors,
// counts them, and reports their edges as -1.
func TestModelMaxStates(t *testing.T) {
	m := reducedModel(t, coherence.MESI, coherence.MESI)
	m.MaxStates = 3
	dropped := 0
	m.Visit = func(_ int32, _ LineState, es []Edge) error {
		for _, e := range es {
			if e.To == -1 {
				dropped++
			}
		}
		return nil
	}
	c, err := m.Search()
	if err != nil {
		t.Fatal(err)
	}
	if c.States != 3 || c.Dropped == 0 || dropped != c.Dropped {
		t.Errorf("states %d, dropped %d, -1 edges %d", c.States, c.Dropped, dropped)
	}
}

func TestModelVisitErrorStopsSearch(t *testing.T) {
	errStop := errors.New("stop")
	m := reducedModel(t, coherence.MSI, coherence.MESI)
	m.Visit = func(int32, LineState, []Edge) error { return errStop }
	if c, err := m.Search(); !errors.Is(err, errStop) || c != nil {
		t.Errorf("Search = %v, %v; want nil and the Visit error", c, err)
	}
}

// TestModelForeignSnoopOp: an invalidation snooper presented a Dragon
// BusUpd ignores it in an un-integrated system, and the model panics on it
// in a reduced one (the reduction never presents such an op).
func TestModelForeignSnoopOp(t *testing.T) {
	m := passthroughModel(WrapperPolicy{}, coherence.Dragon, coherence.MESI)
	_, labels := searchLabels(t, m)
	if !strings.Contains(labels, "P1:ignores-BusUpd") {
		t.Error("MESI snooper never ignored a BusUpd")
	}
	m.Strict = true
	defer func() {
		if recover() == nil {
			t.Error("strict model accepted an op outside the snooper's protocol")
		}
	}()
	m.Search()
}

func TestModelRejectsMasterCount(t *testing.T) {
	for _, n := range []int{0, ModelMasters + 1} {
		m := Model{Masters: make([]ModelMaster, n)}
		if _, err := m.Search(); err == nil {
			t.Errorf("%d masters accepted", n)
		}
	}
}
