package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/oram"
)

// Crash linearizability, as this harness defines it: for a crash
// injected while op i is in flight, the recovered store must equal the
// reference replay of the first k ops for k = i or k = i+1 — either the
// in-flight op's durable batch committed entirely (k = i+1) or it was
// abandoned entirely (k = i). One trial (RunTrial) records which prefixes
// the recovered store equals; the crash matrix counts a point consistent
// by exactly this rule, and CheckCrash holds the persistent schemes
// (config.Policy.Persistent) to it. The non-persistent baselines promise
// less, and CheckCrash holds them only to "no fabricated bytes": every
// recovered value is zero or some version that address held.

// CrashOptions tunes a CheckCrash run.
type CrashOptions struct {
	// Steps to inject at; nil means core.DeclaredStepsFor(scheme).
	Steps []int
	// AccessIndices are the access counts after which each step fires
	// (one trial per step × index); nil derives {1, n/2, n-2}.
	AccessIndices []uint64
	// PostRecover, if set, runs after every successful recovery and
	// before the state comparison — the mutation-testing hook: sabotage
	// the recovered state here and the harness must object.
	PostRecover func(Target)
	// MaxViolations caps recorded violations (0 = 32).
	MaxViolations int
}

func (o CrashOptions) maxViolations() int {
	if o.MaxViolations == 0 {
		return 32
	}
	return o.MaxViolations
}

// CrashTrial records one injection trial: an op history driven with a
// power failure armed at exactly Point, then recovery and a read-back of
// every address.
type CrashTrial struct {
	Point      CrashSpec `json:"point"`
	Fired      bool      `json:"fired"`
	OpsStarted int       `json:"ops_started"`          // op index in flight when the crash fired (-1 if it never fired)
	Matched    []int     `json:"matched,omitempty"`    // prefix boundaries k whose replay equals the recovered store
	Unreadable []uint64  `json:"unreadable,omitempty"` // addresses the recovered store could not read
	Fabricated []uint64  `json:"fabricated,omitempty"` // addresses holding a value the history never wrote there
}

// Consistent is the prefix rule: the crash fired while op i was in
// flight and the recovered store equals prefix i or prefix i+1.
func (t CrashTrial) Consistent() bool {
	i := t.OpsStarted
	return t.Fired && (slices.Contains(t.Matched, i) || slices.Contains(t.Matched, i+1))
}

func (t CrashTrial) String() string {
	if !t.Fired {
		return fmt.Sprintf("%v: never fired", t.Point)
	}
	var got string
	switch {
	case t.Consistent():
		got = fmt.Sprintf("recovered prefix(es) %v", t.Matched)
	case len(t.Matched) > 0:
		got = fmt.Sprintf("recovered only stale prefix(es) %v — durable writes were lost", t.Matched)
	default:
		got = "recovered state matches no prefix of the history"
	}
	s := fmt.Sprintf("%v: crash during op %d; %s", t.Point, t.OpsStarted, got)
	if n := len(t.Unreadable); n > 0 {
		s += fmt.Sprintf(", %d unreadable (first: addr %d)", n, t.Unreadable[0])
	}
	if n := len(t.Fabricated); n > 0 {
		s += fmt.Sprintf(", %d fabricated (first: addr %d)", n, t.Fabricated[0])
	}
	return s
}

// RunTrial drives ops on ctl with a power failure armed at exactly at,
// recovers, runs postRecover (if non-nil), and reads back every address.
// A point the ops never reach leaves the trial unfired. The error is an
// access failure other than the injected crash, or a failed recovery.
func RunTrial(ctl *core.Controller, ops []Op, at CrashSpec, postRecover func()) (CrashTrial, error) {
	trial := CrashTrial{Point: at}
	ctl.CrashAt = func(p CrashSpec) bool { return p == at }
	i, err := drive(ctl, ops)
	ctl.CrashAt = nil
	trial.OpsStarted, trial.Fired = i, i >= 0
	if err != nil || !trial.Fired {
		return trial, err
	}
	if err := ctl.Recover(); err != nil {
		return trial, fmt.Errorf("%v: recovery failed: %w", at, err)
	}
	if postRecover != nil {
		postRecover()
	}
	bb := ctl.Cfg.BlockBytes
	history := ops[:i+1]
	// recovered[a] == nil marks an address lost in the crash: it matches
	// no prefix.
	recovered := make([][]byte, ctl.ORAM.NumBlocks())
	for a := range recovered {
		v, err := ctl.Peek(oram.Addr(a))
		switch {
		case err != nil:
			trial.Unreadable = append(trial.Unreadable, uint64(a))
			continue
		case !KnownVersion(history, uint64(a), v, bb):
			trial.Fabricated = append(trial.Fabricated, uint64(a))
		}
		recovered[a] = v
	}
	trial.Matched = MatchedPrefixes(recovered, PrefixStates(history, bb), i+1, bb)
	return trial, nil
}

// drive runs ops on ctl in order. It returns the index of the op in
// flight when an injected crash fired, or -1 when every op completed.
func drive(ctl *core.Controller, ops []Op) (int, error) {
	for i, op := range ops {
		kind, data := oram.OpRead, []byte(nil)
		if op.Write {
			kind, data = oram.OpWrite, op.Data
		}
		if _, err := ctl.Access(kind, oram.Addr(op.Addr), data); errors.Is(err, ErrCrashed) {
			return i, nil
		} else if err != nil {
			return -1, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return -1, nil
}

// CrashReport is the outcome of one CheckCrash run.
type CrashReport struct {
	Scheme     string       `json:"scheme"`
	Trials     []CrashTrial `json:"trials"`
	StepsFired map[int]int  `json:"steps_fired"` // step -> number of trials in which it fired
	Violations []Violation  `json:"violations,omitempty"`
}

// OK reports whether the run found no violations.
func (r *CrashReport) OK() bool { return len(r.Violations) == 0 }

func (r *CrashReport) add(o CrashOptions, v Violation) {
	if len(r.Violations) < o.maxViolations() {
		r.Violations = append(r.Violations, v)
	}
}

// CheckCrash tortures the scheme with crash injection. For every
// requested (step, access-index) pair it arms the first point of that
// step offered at or after that access — found by one unarmed pass over
// the ops — on a fresh system, and runs it as one RunTrial. Persistent
// schemes must recover to prefix i or i+1; the baselines must not
// fabricate bytes. Every requested step must fire at least once across
// the run, so a protocol change that stops exposing a declared point is
// itself a violation.
func CheckCrash(p Params, ops []Op, copts CrashOptions) (*CrashReport, error) {
	if len(ops) < 2 {
		return nil, fmt.Errorf("oracle: CheckCrash needs at least 2 ops, got %d", len(ops))
	}
	steps := copts.Steps
	if steps == nil {
		steps = core.DeclaredStepsFor(p.Scheme)
	}
	afters := copts.AccessIndices
	if afters == nil {
		n := uint64(len(ops))
		afters = dedupSorted([]uint64{1, n / 2, n - 2})
	}
	// build makes a fresh controller; with a store, in its own directory,
	// so no run recovers another's on-disk state.
	build := func(dir string) (*coreTarget, error) {
		tp := p
		if p.StoreDir != "" {
			tp.StoreDir = filepath.Join(p.StoreDir, dir)
		}
		tgt, err := NewTarget(tp)
		if err != nil {
			return nil, err
		}
		ct, ok := tgt.(*coreTarget)
		if !ok {
			return nil, fmt.Errorf("oracle: scheme %s does not support crash injection", p.Scheme)
		}
		return ct, nil
	}

	type offer struct {
		step  int
		after uint64
	}
	first := make(map[offer]CrashSpec)
	probe, err := build("probe")
	if err != nil {
		return nil, err
	}
	probe.ctl.CrashAt = func(cs CrashSpec) bool {
		for _, after := range afters {
			k := offer{cs.Step, after}
			if _, seen := first[k]; !seen && cs.Access >= after {
				first[k] = cs
			}
		}
		return false
	}
	_, err = drive(probe.ctl, ops)
	if cerr := probe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rep := &CrashReport{Scheme: p.Scheme.String(), StepsFired: make(map[int]int)}
	strict := p.Scheme.Policy().Persistent()
	for _, step := range steps {
		for _, after := range afters {
			at, ok := first[offer{step, after}]
			if !ok {
				continue
			}
			ct, err := build(fmt.Sprintf("trial-s%d-a%d", step, after))
			if err != nil {
				return nil, err
			}
			var post func()
			if copts.PostRecover != nil {
				post = func() { copts.PostRecover(ct) }
			}
			trial, err := RunTrial(ct.ctl, ops, at, post)
			ct.Close() // the verdict is in hand: free the image, release the store
			rep.Trials = append(rep.Trials, trial)
			if trial.Fired {
				rep.StepsFired[step]++
			}
			i := trial.OpsStarted
			switch {
			case err != nil:
				rep.add(copts, Violation{Kind: "crash", Op: i, Detail: err.Error()})
			case !trial.Fired:
			case strict && !trial.Consistent():
				rep.add(copts, Violation{Kind: "crash", Op: i, Detail: trial.String()})
			case !strict:
				for _, a := range trial.Fabricated {
					rep.add(copts, Violation{Kind: "crash", Op: i, Addr: a,
						Detail: fmt.Sprintf("%v: recovered a value never written to addr %d", at, a)})
				}
			}
		}
	}

	for _, step := range steps {
		if rep.StepsFired[step] == 0 {
			rep.add(copts, Violation{Kind: "crash", Op: -1,
				Detail: fmt.Sprintf("declared step %d never fired in any trial", step)})
		}
	}
	return rep, nil
}

// PrefixStates replays ops against the reference store and returns
// states[k] = the sparse store after the first k ops (k = 0..len(ops)).
// Shared by CheckCrash and the out-of-process kill -9 harness, so both
// hold recovered stores to the same definition of "prefix of history".
func PrefixStates(ops []Op, blockBytes int) []map[uint64][]byte {
	ref := newRefStore(blockBytes)
	states := make([]map[uint64][]byte, len(ops)+1)
	states[0] = map[uint64][]byte{}
	for i, op := range ops {
		ref.apply(op)
		snap := make(map[uint64][]byte, len(ref.m))
		for a, v := range ref.m {
			snap[a] = v
		}
		states[i+1] = snap
	}
	return states
}

// MatchedPrefixes returns every boundary k <= max whose prefix state
// equals the dense recovered store. recovered[a] == nil marks an
// address that could not be read back; it never matches.
func MatchedPrefixes(recovered [][]byte, states []map[uint64][]byte, max, blockBytes int) []int {
	if max > len(states)-1 {
		max = len(states) - 1
	}
	zero := make([]byte, blockBytes)
	var matched []int
	for k := 0; k <= max; k++ {
		if storeEquals(recovered, states[k], zero) {
			matched = append(matched, k)
		}
	}
	return matched
}

// storeEquals compares a dense recovered store against a sparse prefix
// snapshot (missing keys read as zero blocks).
func storeEquals(recovered [][]byte, prefix map[uint64][]byte, zero []byte) bool {
	for a, got := range recovered {
		want, ok := prefix[uint64(a)]
		if !ok {
			want = zero
		}
		if !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

// KnownVersion reports whether v is zero or some value written to a in
// the given op history — the weak per-address check the non-persistent
// baselines are held to (no fabricated bytes, staleness permitted).
func KnownVersion(ops []Op, a uint64, v []byte, blockBytes int) bool {
	if bytes.Equal(v, make([]byte, blockBytes)) {
		return true
	}
	for _, op := range ops {
		if op.Write && op.Addr == a && bytes.Equal(op.Data, v) {
			return true
		}
	}
	return false
}

func dedupSorted(xs []uint64) []uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
