// Package explore runs the exhaustive breadth-first reachability search of
// core's abstract coherence model — N bus masters (each running any protocol
// from {MEI, MSI, MESI, MOESI, Dragon, none} behind its wrapper or TAG-CAM
// snoop logic), one cache line with symbolic data, and a nondeterministic
// action alphabet of local read, local write and eviction — under each
// hardware wiring of internal/platform, and renders its census,
// counterexample replays and state-graph dumps.  The transition relation is
// core.Model's, the same one core.Verify searches; this package maps a Mode
// to the model's parameters.
//
// Every state generated during the search is checked against the same
// invariants the online auditor of internal/audit enforces on live runs —
// SWMR, single dirty owner, the data-value invariant (via per-copy freshness
// bits), and reduction-table membership (core.AllowedStates) — plus the
// TAG-CAM mirror property (the CAM is a superset of the shadowed cache's
// residency).  Because the action alphabet is closed under interleaving and
// the line state space is finite, a clean sweep is a proof over all
// reachable states of the protocol product FSMs, not a test of the states a
// particular workload happens to visit.
//
// The model deliberately abstracts the cycle-accurate kernel: one line, no
// timing, atomic bus transactions (a snoop hit's ARTRY → nFIQ → ISR drain →
// retry sequence collapses into one guarded action), symbolic data as
// freshness bits.  DESIGN.md §10 discusses the abstraction gap; the
// containment test in the repository root checks the live simulator against
// the model in the direction that matters (observed ⊆ reachable).
package explore

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
)

// Mode selects which coherence hardware the model includes, matching the
// wiring variants of internal/platform.  Explore maps it to the model's
// parameters: ModeWrapped gives every master its core.Reduce policy,
// ModeUnwired gives every master WrapperPolicy{Shared: SharedForceDeassert},
// and ModeNoSnoop removes snooping altogether.
type Mode uint8

const (
	// ModeWrapped is the paper's proposed solution: snooping caches behind
	// the wrapper policies computed by core.Reduce, TAG-CAM snoop logic for
	// coherence-less masters.  The proof target: zero violations.
	ModeWrapped Mode = iota
	// ModeUnwired is the DisableWrappers positive control: snooping is
	// active and coherence-less masters keep their snoop logic, but wrapper
	// conversions, the shared-signal wiring and cache-to-cache supply are
	// all absent.  Heterogeneous mixes must produce violations here.
	ModeUnwired
	// ModeNoSnoop models the baseline solutions (cache-disabled, software
	// maintenance): no snooping hardware at all.  The explorer enumerates
	// every interleaving, including the undisciplined ones the baselines
	// exclude by construction, so violations here are expected; the mode
	// exists to bound the baselines' reachable state sets for containment.
	ModeNoSnoop
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeWrapped:
		return "wrapped"
	case ModeUnwired:
		return "unwired"
	case ModeNoSnoop:
		return "no-snoop"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// MaxMasters bounds the explored master count.  The model itself holds
// core.ModelMasters; the explorer's bound is the size of the proof it runs.
const MaxMasters = 3

// DefaultMaxStates bounds the visited set when Config.MaxStates is zero.
// The single-line product FSM of three 5-state protocols with freshness and
// CAM bits fits in 2^19 states; the default leaves a wide margin while still
// guaranteeing termination accounting if the model grows.
const DefaultMaxStates = 1 << 16

// Config configures one exploration.
type Config struct {
	// Protocols lists the per-master protocols (coherence.None marks a
	// master with no coherence hardware).  1..MaxMasters entries.
	Protocols []coherence.Kind
	// Mode selects the modelled hardware (see Mode).
	Mode Mode
	// MaxStates bounds the visited set (0 = DefaultMaxStates).  Successor
	// states beyond the bound are still invariant-checked and counted in
	// Result.Dropped, but not expanded: Result.Complete reports false.
	MaxStates int
	// Graph, when non-nil, receives the explored state graph as JSONL: one
	// record per expanded state, in BFS discovery order, with its outgoing
	// edges.
	Graph io.Writer
}

// Violation is one invariant breach found during exploration, with a
// replayable counterexample: Path is the guarded-action sequence from the
// initial state, and Trace is the rendered replay of that path (one line per
// action, re-executed through the model's step function, so a printed trace
// is by construction reproducible).
type Violation struct {
	// Check is one of the model's check names (core.CheckSWMR, ...).
	Check  string
	Master int
	State  coherence.State
	Path   []string
	Trace  []string
}

// String renders the violation headline (use Trace for the full replay).
func (v Violation) String() string {
	return fmt.Sprintf("%s at P%d (state %v) after [%s]", v.Check, v.Master, v.State, strings.Join(v.Path, " "))
}

// Result is the census of one exploration.
type Result struct {
	Protocols []coherence.Kind
	Mode      Mode
	// Effective is the reduced protocol (ModeWrapped only; None otherwise).
	Effective coherence.Kind
	// States is the number of distinct reachable states discovered;
	// Transitions counts every guarded-action edge traversed.
	States      int
	Transitions int
	// FrontierPeak is the maximum BFS frontier size; Dropped counts
	// successor states not expanded because MaxStates was reached; Complete
	// reports a full sweep (Dropped == 0), i.e. the census is a proof over
	// all reachable states rather than a bounded search.
	FrontierPeak int
	Dropped      int
	Complete     bool
	// Violations lists every distinct (check, master, state) breach.
	Violations []Violation
	// Reachable[i] is master i's observed state set, sorted I<S<E<M<O —
	// directly comparable with the auditor's Summary.Reachable.
	Reachable [][]coherence.State
}

// Contains reports whether master i was seen holding state s.
func (r *Result) Contains(i int, s coherence.State) bool {
	return slices.Contains(r.Reachable[i], s)
}

// Eliminated reports whether state s of master i's native protocol was
// proven unreachable (the wrapper did its job).
func (r *Result) Eliminated(i int, s coherence.State) bool {
	return !r.Contains(i, s)
}

// Explore runs the breadth-first sweep for cfg.  In ModeWrapped the wrapper
// policies come from core.Reduce, so a mix the paper's method rejects (any
// Dragon heterogeneity) returns that error.
func Explore(cfg Config) (*Result, error) {
	n := len(cfg.Protocols)
	if n < 1 || n > MaxMasters {
		return nil, fmt.Errorf("explore: 1..%d masters supported, got %d", MaxMasters, n)
	}
	m := core.Model{
		Masters:   make([]core.ModelMaster, n),
		Snooping:  cfg.Mode != ModeNoSnoop,
		Strict:    cfg.Mode == ModeWrapped,
		MaxStates: cfg.MaxStates,
	}
	if m.MaxStates <= 0 {
		m.MaxStates = DefaultMaxStates
	}
	var integ core.Integration
	if cfg.Mode == ModeWrapped {
		var err error
		if integ, err = core.Reduce(cfg.Protocols); err != nil {
			return nil, err
		}
	}
	for i, k := range cfg.Protocols {
		mm := core.ModelMaster{Protocol: k, Allowed: core.AllowedStates(k, k)}
		switch cfg.Mode {
		case ModeWrapped:
			mm.Policy = integ.Policies[i]
			mm.Allowed = core.AllowedStates(k, integ.Effective)
		case ModeUnwired:
			// The shared line is unwired across protocol conventions and
			// cache-to-cache supply is off.
			mm.Policy = core.WrapperPolicy{Shared: core.SharedForceDeassert}
		}
		m.Masters[i] = mm
	}
	if cfg.Graph != nil {
		m.Visit = func(id int32, s core.LineState, edges []core.Edge) error {
			return dumpState(cfg.Graph, cfg.Protocols, id, s, edges)
		}
	}
	c, err := m.Search()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Protocols:    append([]coherence.Kind(nil), cfg.Protocols...),
		Mode:         cfg.Mode,
		Effective:    integ.Effective,
		States:       c.States,
		Transitions:  c.Transitions,
		FrontierPeak: c.FrontierPeak,
		Dropped:      c.Dropped,
		Complete:     c.Dropped == 0,
		Reachable:    c.Reachable,
	}
	for _, v := range c.Violations {
		res.Violations = append(res.Violations, Violation{
			Check:  v.Check,
			Master: v.Master,
			State:  v.State,
			Path:   v.PathNames(),
			Trace:  replay(c, n, v.Path),
		})
	}
	return res, nil
}

// replay re-executes the guarded-action path from the initial state through
// the model's step function, rendering one line per action.
func replay(c *core.Census, n int, path []core.Action) []string {
	lines := []string{"init                          " + render(core.LineState{MemFresh: true}, n)}
	c.Replay(path, func(label string, s core.LineState) {
		lines = append(lines, fmt.Sprintf("%-30s%s", label, render(s, n)))
	})
	return lines
}

// render prints a state: per-master coherence state, '*' marks a copy
// holding the globally newest value, '+' marks a TAG-CAM entry.
func render(s core.LineState, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('P')
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		b.WriteString(s.Cache[i].String())
		if s.Fresh[i] {
			b.WriteByte('*')
		}
		if s.CAM[i] {
			b.WriteByte('+')
		}
	}
	if s.MemFresh {
		b.WriteString(" mem*")
	} else {
		b.WriteString(" mem")
	}
	return b.String()
}

// graphState is one JSONL record of the state-graph dump.
type graphState struct {
	ID       int32         `json:"id"`
	Masters  []graphMaster `json:"masters"`
	MemFresh bool          `json:"mem_fresh"`
	Edges    []core.Edge   `json:"edges,omitempty"`
}

type graphMaster struct {
	Protocol string `json:"protocol"`
	State    string `json:"state"`
	Fresh    bool   `json:"fresh"`
	CAM      bool   `json:"cam,omitempty"`
}

// dumpState writes state id's graph record; a write failure ends the sweep
// and is returned from Explore.
func dumpState(w io.Writer, protocols []coherence.Kind, id int32, s core.LineState, edges []core.Edge) error {
	rec := graphState{ID: id, MemFresh: s.MemFresh, Edges: edges}
	for i, k := range protocols {
		rec.Masters = append(rec.Masters, graphMaster{
			Protocol: k.String(),
			State:    s.Cache[i].String(),
			Fresh:    s.Fresh[i],
			CAM:      s.CAM[i],
		})
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("explore: graph dump: %w", err)
	}
	return nil
}
