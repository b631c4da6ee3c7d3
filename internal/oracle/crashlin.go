package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/oram"
)

// Crash linearizability, as this harness defines it: for a crash
// injected while op i is in flight, the recovered store must equal the
// reference replay of the first k ops for k = i or k = i+1 — either the
// in-flight op's durable batch committed entirely (k = i+1) or it was
// abandoned entirely (k = i). One trial (RunTrial) records which prefixes
// the recovered store equals. The crash package arms, runs and judges
// every trial list: its matrix counts a point consistent by exactly this
// rule, and crash.Check holds the persistent schemes
// (config.Policy.Persistent) to it and the non-persistent baselines only
// to "no fabricated bytes" (KnownVersion).

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
// recovers, runs postRecover on ctl (if non-nil), and reads back every
// address.
// A point the ops never reach leaves the trial unfired. The error is an
// access failure other than the injected crash, or a failed recovery.
func RunTrial(ctl *core.Controller, ops []Op, at CrashSpec, postRecover func(*core.Controller)) (CrashTrial, error) {
	trial := CrashTrial{Point: at}
	ctl.CrashAt = func(p CrashSpec) bool { return p == at }
	i, err := Drive(ctl, ops)
	ctl.CrashAt = nil
	trial.OpsStarted, trial.Fired = i, i >= 0
	if err != nil || !trial.Fired {
		return trial, err
	}
	if err := ctl.Recover(); err != nil {
		return trial, fmt.Errorf("%v: recovery failed: %w", at, err)
	}
	if postRecover != nil {
		postRecover(ctl)
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

// Drive runs ops on ctl in order. It returns the index of the op in
// flight when an injected crash fired, or -1 when every op completed.
func Drive(ctl *core.Controller, ops []Op) (int, error) {
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

// PrefixStates replays ops against the reference store and returns
// states[k] = the sparse store after the first k ops (k = 0..len(ops)).
// Shared by RunTrial and the out-of-process kill -9 harness, so both
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
