package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/explore"
	"hetcc/internal/runner"
)

// proveKinds are the protocols the explorer models.
var proveKinds = []coherence.Kind{
	coherence.MEI, coherence.MSI, coherence.MESI,
	coherence.MOESI, coherence.Dragon, coherence.None,
}

// proveModes are the wirings every multiset is explored under.
var proveModes = []explore.Mode{explore.ModeWrapped, explore.ModeUnwired, explore.ModeNoSnoop}

// proveOp is one exploration of a protocol multiset under one wiring, plus
// core.Verify where the multiset integrates and has only coherent masters.
type proveOp struct {
	kinds []coherence.Kind
	mode  explore.Mode
}

func (o *proveOp) name() string {
	names := make([]string, len(o.kinds))
	for i, k := range o.kinds {
		names[i] = k.String()
	}
	return strings.Join(names, "+") + "/" + o.mode.String()
}

// proveOutcome is the census an op's digest covers.
type proveOutcome struct {
	Explore    *explore.Result    `json:"explore,omitempty"`
	ExploreErr string             `json:"explore_err,omitempty"`
	Verify     *core.VerifyResult `json:"verify,omitempty"`
}

func (o *proveOp) do(tr *tracer) result {
	start := time.Now()
	root := tr.beginOp(o.name())
	// The wrapped wiring is planned by core.Reduce, which classifies the
	// platform; the other wirings need no plan.
	var integ core.Integration
	var reduceErr error
	if o.mode == explore.ModeWrapped {
		s := tr.begin("core.reduce")
		integ, reduceErr = core.Reduce(o.kinds)
		tr.end(s)
	}
	setupEnd := time.Now()
	s := tr.begin("explore.explore")
	res, exploreErr := explore.Explore(explore.Config{Protocols: o.kinds, Mode: o.mode})
	tr.end(s)
	exploreEnd := time.Now()
	var verify *core.VerifyResult
	var verifyErr error
	if o.mode == explore.ModeWrapped && reduceErr == nil && !has(o.kinds, coherence.None) {
		s = tr.begin("core.verify")
		vr, err := core.Verify(o.kinds, integ.Policies, integ.Effective)
		tr.end(s)
		verify, verifyErr = &vr, err
	}
	s = tr.begin("census.digest")
	out := proveOutcome{Explore: res, Verify: verify}
	if exploreErr != nil {
		out.ExploreErr = exploreErr.Error()
	}
	raw, digestErr := json.Marshal(out)
	sum := sha256.Sum256(raw)
	tr.end(s)
	end := time.Now()
	tr.end(root)

	r := result{
		digest:  hex.EncodeToString(sum[:]),
		elapsed: end.Sub(start),
		setup:   setupEnd.Sub(start),
		work:    exploreEnd.Sub(setupEnd),
	}
	if res != nil {
		r.proof = proofCounts{states: res.States, transitions: res.Transitions, frontierPeak: res.FrontierPeak}
	}
	if digestErr != nil {
		r.err = fmt.Errorf("%s: digest: %w", o.name(), digestErr)
		return r
	}
	r.err = o.check(res, reduceErr, exploreErr, verify, verifyErr)
	return r
}

// check applies the proof gate: wrapped mixes are proved, heterogeneous
// unwired mixes are caught, and Dragon mixes are rejected.
func (o *proveOp) check(res *explore.Result, reduceErr, exploreErr error, verify *core.VerifyResult, verifyErr error) error {
	name := o.name()
	if o.mode == explore.ModeWrapped && dragonMix(o.kinds) {
		if reduceErr == nil || exploreErr == nil {
			return fmt.Errorf("%s: Dragon mix accepted", name)
		}
		return nil
	}
	switch {
	case reduceErr != nil:
		return fmt.Errorf("%s: reduce: %w", name, reduceErr)
	case exploreErr != nil:
		return fmt.Errorf("%s: explore: %w", name, exploreErr)
	case !res.Complete:
		return fmt.Errorf("%s: incomplete sweep, %d states dropped", name, res.Dropped)
	case verifyErr != nil:
		return fmt.Errorf("%s: verify: %w", name, verifyErr)
	}
	switch o.mode {
	case explore.ModeWrapped:
		if len(res.Violations) != 0 {
			return fmt.Errorf("%s: wrapped system violates %v", name, res.Violations[0])
		}
		if verify != nil && len(verify.Violations) != 0 {
			return fmt.Errorf("%s: core.Verify finds %v", name, verify.Violations[0])
		}
	case explore.ModeUnwired:
		if heterogeneous(o.kinds) && len(res.Violations) == 0 {
			return fmt.Errorf("%s: heterogeneous mix found coherent without wrappers", name)
		}
	}
	return nil
}

// proofCounts are the explorer's census figures, summed over ops except
// frontierPeak, which is the largest.
type proofCounts struct {
	states, transitions, frontierPeak int
}

func (c *proofCounts) add(o proofCounts) {
	c.states += o.states
	c.transitions += o.transitions
	c.frontierPeak = max(c.frontierPeak, o.frontierPeak)
}

func has(kinds []coherence.Kind, k coherence.Kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// dragonMix reports a multiset the paper's method rejects: Dragon beside any
// other protocol.
func dragonMix(kinds []coherence.Kind) bool {
	return has(kinds, coherence.Dragon) && heterogeneous(kinds)
}

// heterogeneous reports whether the masters run more than one protocol.  A
// coherence-less master counts as MEI: the model gives it an MEI-like
// private cache shadowed by the TAG CAM, so an MEI master beside it needs no
// wrapper.
func heterogeneous(kinds []coherence.Kind) bool {
	norm := func(k coherence.Kind) coherence.Kind {
		if k == coherence.None {
			return coherence.MEI
		}
		return k
	}
	for _, k := range kinds[1:] {
		if norm(k) != norm(kinds[0]) {
			return true
		}
	}
	return false
}

// proveOps returns every 2- and 3-master multiset under every wiring,
// ordered by a permutation drawn from seed.
func proveOps(seed uint64) []*proveOp {
	var sets [][]coherence.Kind
	n := len(proveKinds)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			sets = append(sets, []coherence.Kind{proveKinds[i], proveKinds[j]})
			for k := j; k < n; k++ {
				sets = append(sets, []coherence.Kind{proveKinds[i], proveKinds[j], proveKinds[k]})
			}
		}
	}
	var ops []*proveOp
	for _, s := range sets {
		for _, m := range proveModes {
			ops = append(ops, &proveOp{kinds: s, mode: m})
		}
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := int(runner.DeriveSeed(seed, i) % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// proveBatch runs the ops at idx on jobs workers through runner.Execute.
func proveBatch(ops []*proveOp, idx []int, jobs int) []result {
	tasks := make([]runner.Task[result], len(idx))
	for i, k := range idx {
		o := ops[k]
		tasks[i] = runner.Task[result]{Label: o.name(), Run: func() (result, error) { return o.do(nil), nil }}
	}
	out := make([]result, len(idx))
	for i, oc := range runner.Execute(tasks, runner.Options{Jobs: jobs}) {
		out[i] = oc.Value
		out[i].elapsed = oc.Elapsed
		if oc.Err != nil {
			out[i].err = oc.Err
		}
	}
	return out
}
