package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hetcc/internal/coherence"
)

// ModelMasters bounds the model size: the packed state key holds 6 bits per
// master plus the memory bit.
const ModelMasters = 4

// Check names the model reports.  The first four are the online auditor's
// names (internal/audit), so violations correlate across the verifiers; the
// rest are model-only refinements (the auditor sees a stale read only at the
// read, the model also flags the stale fill/write that caused it) plus the
// TAG-CAM mirror property the auditor cannot observe.
const (
	CheckSWMR         = "swmr"
	CheckDirtyOwner   = "dirty-owner"
	CheckStaleRead    = "stale-read"
	CheckIllegalState = "illegal-state"
	CheckStaleFill    = "stale-fill"
	CheckStaleWrite   = "stale-write"
	CheckCAMMirror    = "cam-mirror"
)

// ModelMaster configures one bus master of the model.
type ModelMaster struct {
	// Protocol is the master's coherence protocol.  coherence.None marks a
	// master without coherence hardware: its private cache behaves as MEI
	// and, in a snooping system, TAG-CAM snoop logic shadows it.
	Protocol coherence.Kind
	// Policy is the master's bus wrapper.
	Policy WrapperPolicy
	// Allowed is the state set the master must stay inside (the
	// reduction-table membership check).
	Allowed []coherence.State
}

// Model is the abstract coherence model, configured for one breadth-first
// search: N bus masters, each a protocol FSM behind its wrapper policy (or,
// for a master without coherence hardware, an MEI-like private cache
// shadowed by TAG-CAM snoop logic), one cache line with symbolic data, and a
// nondeterministic action alphabet — local read, local write, eviction —
// whose bus transactions, snoop reactions, wrapper conversions and ISR
// drains are consequences inside one step function.  It is the single
// transition relation of the proof layer: Verify searches it with
// caller-supplied policies, and internal/explore once per hardware wiring.
type Model struct {
	// Masters lists the bus masters, 1..ModelMasters.
	Masters []ModelMaster
	// Snooping reports whether the system has any snooping hardware;
	// without it no bus transaction reaches another master (the baseline
	// solutions).
	Snooping bool
	// Strict marks a reduced system: a snooper presented with an op outside
	// its protocol is then a model bug and panics.  Otherwise the snooper
	// ignores the op and its copy goes stale, as an un-integrated
	// invalidation snooper ignores a Dragon BusUpd.
	Strict bool
	// MaxStates bounds the visited set (0 = unbounded).  Successors beyond
	// the bound are still invariant-checked and counted in Census.Dropped,
	// but not expanded.
	MaxStates int
	// Visit, when non-nil, is called once per expanded state, in discovery
	// order, with its labelled outgoing edges (valid only during the call).
	// An error stops the search and is returned from Search.
	Visit func(id int32, s LineState, edges []Edge) error
}

// LineState is the abstract joint state of the one modelled cache line:
// per-master coherence state, a freshness bit (the copy holds the globally
// newest value), a TAG-CAM residency bit for masters behind snoop logic, and
// the memory freshness bit.
type LineState struct {
	Cache    [ModelMasters]coherence.State
	Fresh    [ModelMasters]bool
	CAM      [ModelMasters]bool
	MemFresh bool
}

func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// key packs the state canonically: 6 bits per master (3 state, 1 fresh,
// 1 cam, 1 spare) plus the memory bit.
func (s LineState) key(n int) uint32 {
	k := uint32(0)
	for i := 0; i < n; i++ {
		k = k<<6 | uint32(s.Cache[i])<<2 | bit(s.Fresh[i])<<1 | bit(s.CAM[i])
	}
	return k<<1 | bit(s.MemFresh)
}

// unpack is the inverse of key.
func unpack(k uint32, n int) LineState {
	s := LineState{MemFresh: k&1 != 0}
	for i := n - 1; i >= 0; i-- {
		k >>= 1
		s.Cache[i] = coherence.State(k >> 2 & 7)
		s.Fresh[i] = k&2 != 0
		s.CAM[i] = k&1 != 0
		k >>= 5
	}
	return s
}

// ActionKind enumerates the local action alphabet.
type ActionKind uint8

const (
	ActRead ActionKind = iota
	ActWrite
	ActEvict
)

// Action is one guarded action: a local access by one master.
type Action struct {
	Master int
	Kind   ActionKind
}

// String renders the action as "P<master>.rd", ".wr" or ".ev".
func (a Action) String() string {
	p := "P" + strconv.Itoa(a.Master)
	switch a.Kind {
	case ActRead:
		return p + ".rd"
	case ActWrite:
		return p + ".wr"
	default:
		return p + ".ev"
	}
}

// Edge is one guarded-action edge of the state graph, JSON-encoded as the
// graph dump's edge record; To is -1 when the successor was dropped by the
// MaxStates bound.
type Edge struct {
	Action string `json:"action"`
	Label  string `json:"label,omitempty"`
	To     int32  `json:"to"`
}

// ModelViolation is the first sighting of one (check, master, state) breach,
// with the action path from the initial state that exposes it.
type ModelViolation struct {
	Check  string
	Master int
	State  coherence.State
	Path   []Action
}

// PathNames renders the violation's path one action name per element.
func (v ModelViolation) PathNames() []string {
	names := make([]string, len(v.Path))
	for i, a := range v.Path {
		names[i] = a.String()
	}
	return names
}

// Census is the outcome of one search.
type Census struct {
	// States is the number of distinct reachable states discovered;
	// Transitions counts every guarded-action edge traversed.
	States      int
	Transitions int
	// FrontierPeak is the maximum BFS frontier size; Dropped counts
	// successors not expanded because MaxStates was reached.
	FrontierPeak int
	Dropped      int
	// Reachable[i] is master i's observed state set, sorted I<S<E<M<O.
	Reachable [][]coherence.State
	// Violations lists every distinct breach in order of first sighting.
	Violations []ModelViolation

	m *search
}

// Replay re-executes path from the initial state through the step function
// the search used, calling f with each action's label (the guarded actions
// that fired: bus op, wrapper conversions, snoop reactions, ISR drains) and
// the state it leads to.
func (c *Census) Replay(path []Action, f func(label string, s LineState)) {
	s := LineState{MemFresh: true}
	var parts []string
	for _, a := range path {
		_, label := c.m.step(&s, a, nil, &parts)
		f(label, s)
	}
}

// numStates sizes the per-master state sets: coherence.State runs I<S<E<M<O.
const numStates = int(coherence.Owned) + 1

// stepViolation is a breach detected while applying or checking one state.
// It is comparable, and is the key that deduplicates Census.Violations.
type stepViolation struct {
	check  string
	master int
	state  coherence.State
}

// search is a Model compiled to its transition relation, plus the BFS
// bookkeeping: state keys in discovery order, key → id, and one (parent,
// action) edge per state for path reconstruction.
type search struct {
	Model
	n       int
	protos  [ModelMasters]*coherence.Protocol
	cam     [ModelMasters]bool // master is behind TAG-CAM snoop logic
	allowed [ModelMasters][numStates]bool

	keys    []uint32
	ids     map[uint32]int32
	parents []int32
	acts    []Action

	transitions  int
	frontierPeak int
	dropped      int

	reachable  [ModelMasters][numStates]bool
	seenViol   map[stepViolation]bool
	violations []ModelViolation

	// viols is the per-edge violation buffer, reused across edges.
	viols []stepViolation
}

// Search runs the breadth-first sweep over every state reachable from the
// all-Invalid, memory-fresh initial state.  Every generated successor is
// checked against the state invariants — reduction-table membership, SWMR,
// single dirty owner, the TAG-CAM mirror property — and every action against
// the data-value invariant (stale read, fill and write).
func (m Model) Search() (*Census, error) {
	n := len(m.Masters)
	if n < 1 || n > ModelMasters {
		return nil, fmt.Errorf("core: model supports 1..%d masters, got %d", ModelMasters, n)
	}
	s := &search{
		Model:    m,
		n:        n,
		ids:      make(map[uint32]int32),
		seenViol: make(map[stepViolation]bool),
	}
	for i, ms := range m.Masters {
		k := ms.Protocol
		if !k.Known() {
			return nil, fmt.Errorf("core: model master %d has unknown protocol %v", i, k)
		}
		if k == coherence.None {
			k = coherence.MEI
			s.cam[i] = m.Snooping
		}
		s.protos[i] = coherence.New(k)
		for _, st := range ms.Allowed {
			s.allowed[i][st] = true
		}
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	c := &Census{
		States:       len(s.keys),
		Transitions:  s.transitions,
		FrontierPeak: s.frontierPeak,
		Dropped:      s.dropped,
		Reachable:    make([][]coherence.State, n),
		Violations:   s.violations,
		m:            s,
	}
	for i := range c.Reachable {
		for st, ok := range s.reachable[i] {
			if ok {
				c.Reachable[i] = append(c.Reachable[i], coherence.State(st))
			}
		}
	}
	return c, nil
}

// run is the breadth-first search.  It renders no strings: edge labels are
// built only for Visit, and paths only for the first sighting of each
// violation.
func (m *search) run() error {
	init := LineState{MemFresh: true}
	m.keys = []uint32{init.key(m.n)}
	m.ids[m.keys[0]] = 0
	m.parents = []int32{-1}
	m.acts = []Action{{}}
	for i := 0; i < m.n; i++ {
		m.reachable[i][coherence.Invalid] = true
	}
	m.report(nil, m.checkState(&init, nil))

	var parts *[]string
	var edges []Edge
	if m.Visit != nil {
		parts = new([]string)
	}
	head := 0
	for head < len(m.keys) {
		if f := len(m.keys) - head; f > m.frontierPeak {
			m.frontierPeak = f
		}
		id := int32(head)
		cur := unpack(m.keys[head], m.n)
		head++

		edges = edges[:0]
		for j := 0; j < m.n; j++ {
			for k := ActRead; k <= ActEvict; k++ {
				a := Action{Master: j, Kind: k}
				if k == ActEvict && cur.Cache[j] == coherence.Invalid {
					continue
				}
				next := cur
				viols, label := m.step(&next, a, m.viols[:0], parts)
				m.transitions++
				nid := m.intern(next.key(m.n), id, a)
				for i := 0; i < m.n; i++ {
					m.reachable[i][next.Cache[i]] = true
				}
				// Invariants are checked on every generated successor —
				// including revisits and states beyond the bound — so a
				// breach is never masked by deduplication or overflow.
				viols = m.checkState(&next, viols)
				m.reportVia(id, a, viols)
				m.viols = viols
				if m.Visit != nil {
					edges = append(edges, Edge{Action: a.String(), Label: label, To: nid})
				}
			}
		}
		if m.Visit != nil {
			if err := m.Visit(id, cur, edges); err != nil {
				return err
			}
		}
	}
	return nil
}

// intern returns the id of the state with key k, discovering it if new; -1
// if the visited set is full (the state is counted as dropped, not expanded).
func (m *search) intern(k uint32, parent int32, a Action) int32 {
	if id, ok := m.ids[k]; ok {
		return id
	}
	if m.MaxStates > 0 && len(m.keys) >= m.MaxStates {
		m.dropped++
		return -1
	}
	id := int32(len(m.keys))
	m.ids[k] = id
	m.keys = append(m.keys, k)
	m.parents = append(m.parents, parent)
	m.acts = append(m.acts, a)
	return id
}

// pathTo reconstructs the discovery path of state id from the parent edges.
func (m *search) pathTo(id int32) []Action {
	var path []Action
	for ; id > 0; id = m.parents[id] {
		path = append(path, m.acts[id])
	}
	slices.Reverse(path)
	return path
}

// report records the first sighting of each of viols, reached by path.
func (m *search) report(path []Action, viols []stepViolation) {
	for _, v := range viols {
		if !m.seenViol[v] {
			m.seenViol[v] = true
			m.violations = append(m.violations, ModelViolation{Check: v.check, Master: v.master, State: v.state, Path: path})
		}
	}
}

// reportVia records violations exposed by applying a to state parent.  A
// violation already recorded costs one map lookup: the path is rebuilt only
// for a first sighting.
func (m *search) reportVia(parent int32, a Action, viols []stepViolation) {
	for _, v := range viols {
		if !m.seenViol[v] {
			m.report(append(m.pathTo(parent), a), viols)
			return
		}
	}
}

// checkState evaluates the state invariants — reduction-table membership,
// SWMR, single dirty owner, and the TAG-CAM mirror property — appending any
// breach to out.
func (m *search) checkState(s *LineState, out []stepViolation) []stepViolation {
	writers, dirties, valid := 0, 0, 0
	writerIdx, dirtyIdx := -1, -1
	for i := 0; i < m.n; i++ {
		st := s.Cache[i]
		if !m.allowed[i][st] {
			out = append(out, stepViolation{CheckIllegalState, i, st})
		}
		if m.cam[i] && st != coherence.Invalid && !s.CAM[i] {
			out = append(out, stepViolation{CheckCAMMirror, i, st})
		}
		if st == coherence.Invalid {
			continue
		}
		valid++
		if st == coherence.Exclusive || st == coherence.Modified {
			writers++
			writerIdx = i
		}
		if st.Dirty() {
			dirties++
			dirtyIdx = i
		}
	}
	if writers > 1 || (writers == 1 && valid > 1) {
		out = append(out, stepViolation{CheckSWMR, writerIdx, s.Cache[writerIdx]})
	}
	if dirties > 1 {
		out = append(out, stepViolation{CheckDirtyOwner, dirtyIdx, s.Cache[dirtyIdx]})
	}
	return out
}

// step applies action a to *s in place, returning viols with any data-value
// violations the action exposed appended.  When parts is non-nil, step also
// returns a label listing the guarded actions that fired (bus op, wrapper
// conversions, snoop reactions, ISR drains), reusing *parts to collect the
// snoop reactions; with parts nil — the search path — it renders nothing and
// the label is empty.
func (m *search) step(s *LineState, a Action, viols []stepViolation, parts *[]string) ([]stepViolation, string) {
	i := a.Master
	if parts != nil {
		*parts = (*parts)[:0]
	}

	switch a.Kind {
	case ActRead:
		if s.Cache[i] != coherence.Invalid {
			if !s.Fresh[i] {
				viols = append(viols, stepViolation{CheckStaleRead, i, s.Cache[i]})
			}
			return viols, label(a, "hit", parts)
		}
		viols = m.fill(s, i, viols, parts)
		return viols, label(a, "BusRd", parts)

	case ActWrite:
		var updated uint8
		op := "BusRdX"
		switch {
		case s.Cache[i] == coherence.Invalid && !m.protos[i].UpdateBased():
			m.broadcast(s, i, coherence.BusRdX, parts)
			s.Cache[i] = m.protos[i].FillStateAfterWrite()
			if m.cam[i] {
				s.CAM[i] = true
			}
		case s.Cache[i] == coherence.Invalid:
			// Dragon write miss: fill with a read, then write like a hit.
			viols = m.fill(s, i, viols, parts)
			var hit string
			hit, updated = m.writeHit(s, i, parts)
			op = "BusRd"
			if hit != "hit" {
				op += "+" + hit
			}
		default:
			if !s.Fresh[i] {
				// Writing one word into a line whose other words are stale
				// corrupts the line.
				viols = append(viols, stepViolation{CheckStaleWrite, i, s.Cache[i]})
			}
			op, updated = m.writeHit(s, i, parts)
		}
		// The write creates the globally newest value; masters that applied
		// a Dragon bus update received it too.
		for j := 0; j < m.n; j++ {
			s.Fresh[j] = j == i || updated&(1<<j) != 0
		}
		s.MemFresh = false
		return viols, label(a, op, parts)

	default: // ActEvict
		op := "silent"
		if s.Cache[i].Dirty() {
			// Dirty copy: the write-back makes memory as fresh as the copy
			// was, and the snoop logic observes the WriteLine.
			s.MemFresh = s.Fresh[i]
			if m.cam[i] {
				s.CAM[i] = false
			}
			op = "wb"
		}
		// A clean drop is invisible on the bus: a TAG-CAM entry stays
		// behind, stale (snooplogic Table rule "foreign-hit" then finds
		// nothing to drain — the spurious-hit path).
		s.Cache[i] = coherence.Invalid
		return viols, label(a, op, parts)
	}
}

// label renders a step's label from its action, bus op and snoop reactions;
// empty when parts is nil.
func label(a Action, op string, parts *[]string) string {
	if parts == nil {
		return ""
	}
	l := a.String() + " " + op
	if len(*parts) > 0 {
		l += "[" + strings.Join(*parts, " ") + "]"
	}
	return l
}

// note appends one snoop-reaction part when labels are being rendered.
func note(parts *[]string, format string, args ...any) {
	if parts != nil {
		*parts = append(*parts, fmt.Sprintf(format, args...))
	}
}

// broadcast presents op from requester to every other master, mutating s
// with the snoop reactions (noted in parts when non-nil), and returns the
// combined shared signal, the freshness of the data the requester will
// receive (from memory or a supplier), and the set of masters (bit j for
// master j) that applied a Dragon word update in place.
func (m *search) broadcast(s *LineState, req int, op coherence.BusOp, parts *[]string) (shared, fillFresh bool, updated uint8) {
	fillFresh = s.MemFresh
	if !m.Snooping {
		return false, fillFresh, 0
	}
	for j := 0; j < m.n; j++ {
		if j == req {
			continue
		}
		if m.cam[j] {
			if !s.CAM[j] {
				continue
			}
			// TAG-CAM match: ARTRY + nFIQ + ISR, collapsed into one atomic
			// guarded action (the retried transaction proceeds only after
			// Complete, so no other action can interleave).  The ISR drains
			// a modified line or invalidates a clean one; a stale entry is a
			// spurious hit (snooplogic Table rules foreign-hit → isr-drain-
			// writeback/isr-complete).
			switch {
			case s.Cache[j].Dirty():
				s.MemFresh = s.Fresh[j]
				fillFresh = s.MemFresh
				note(parts, "P%d:isr-drain", j)
			case s.Cache[j] != coherence.Invalid:
				note(parts, "P%d:isr-inval", j)
			default:
				note(parts, "P%d:isr-spurious", j)
			}
			s.Cache[j] = coherence.Invalid
			s.CAM[j] = false
			continue
		}
		if s.Cache[j] == coherence.Invalid {
			continue
		}
		seen := m.Masters[j].Policy.SnoopOp(op)
		out, err := m.protos[j].OnSnoop(s.Cache[j], seen)
		if err != nil {
			if m.Strict {
				// A reduced system never presents an op outside the
				// snooper's protocol; reaching here is a model bug.
				panic(err)
			}
			// An un-integrated snooper ignores an op outside its protocol
			// (a Dragon BusUpd means nothing to an invalidation snooper):
			// the copy silently goes stale.
			note(parts, "P%d:ignores-%v", j, seen)
			continue
		}
		if !m.Masters[j].Policy.AllowCacheToCache {
			out = out.WithoutSupply()
		}
		if out.Flush {
			s.MemFresh = s.Fresh[j]
			fillFresh = s.MemFresh
		}
		if out.Supply {
			fillFresh = s.Fresh[j]
		}
		if out.Update {
			updated |= 1 << j
		}
		shared = shared || out.AssertShared
		describeSnoop(parts, j, s.Cache[j], out, seen != op)
		s.Cache[j] = out.Next
	}
	return shared, fillFresh, updated
}

func describeSnoop(parts *[]string, j int, old coherence.State, out coherence.SnoopOutcome, converted bool) {
	if parts == nil {
		return
	}
	tags := ""
	for _, t := range [...]struct {
		on  bool
		tag string
	}{{converted, "~conv"}, {out.Flush, "~flush"}, {out.Supply, "~supply"}, {out.Update, "~upd"}, {out.AssertShared, "~shd"}} {
		if t.on {
			tags += t.tag
		}
	}
	if old == out.Next && tags == "" {
		return
	}
	*parts = append(*parts, fmt.Sprintf("P%d:%v>%v%s", j, old, out.Next, tags))
}

// fill allocates master i's copy with a BusRd, sampling the shared signal
// through its wrapper, and appends a stale-fill breach if the data it
// receives is not the newest.
func (m *search) fill(s *LineState, i int, viols []stepViolation, parts *[]string) []stepViolation {
	shared, fillFresh, _ := m.broadcast(s, i, coherence.BusRd, parts)
	st := m.protos[i].FillStateAfterRead(m.Masters[i].Policy.ApplyShared(shared))
	s.Cache[i] = st
	s.Fresh[i] = fillFresh
	if m.cam[i] {
		s.CAM[i] = true
	}
	if !fillFresh {
		viols = append(viols, stepViolation{CheckStaleFill, i, st})
	}
	return viols
}

// writeHit applies a write hit on master i: silent in an exclusive state,
// otherwise the protocol's bus op — a BusUpgr invalidation, or a Dragon
// BusUpd whose final state (Sm or M) comes from the sampled shared signal.
// It returns the label of the bus op ("hit" when silent) and the set of
// masters whose copies were updated in place.
func (m *search) writeHit(s *LineState, i int, parts *[]string) (string, uint8) {
	next, op, needsBus, err := m.protos[i].OnWriteHit(s.Cache[i])
	if err != nil {
		panic(err)
	}
	if !needsBus {
		s.Cache[i] = next
		return "hit", 0
	}
	shared, _, updated := m.broadcast(s, i, op, parts)
	if op == coherence.BusUpd {
		next = m.protos[i].AfterUpdate(m.Masters[i].Policy.ApplyShared(shared))
	}
	s.Cache[i] = next
	return op.String(), updated
}
