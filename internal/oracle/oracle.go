// Package oracle is the differential-testing and invariant-checking
// subsystem: it drives any scheme the repo simulates against a plain
// map reference, checks structural invariants at deep-check boundaries,
// probes leaf-sequence uniformity (the obliviousness tripwire), and —
// in crashlin.go — runs one crash-injection trial and judges the
// recovered store against the prefixes of the op history (the crash
// package drives the trial lists).
package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// Options tunes a Check run. The zero value is a sensible default.
type Options struct {
	// DeepEvery runs the expensive checks (structural invariants plus a
	// full Peek sweep against the reference) every DeepEvery ops and at
	// the end. 0 derives max(1, len(ops)/4); negative disables all but
	// the final deep check.
	DeepEvery int
	// ChiAlpha is the obliviousness-probe significance level. The op
	// streams are deterministic, so an extreme default (1e-9) keeps the
	// tripwire free of false positives while still catching gross skew.
	ChiAlpha float64
	// MaxViolations caps recorded violations (0 = 32).
	MaxViolations int
	// SkipObliviousness disables the chi-square probe. Fuzz targets set
	// it: a coverage-guided fuzzer can steer the op stream to any
	// statistical threshold, making the probe a false-positive machine.
	SkipObliviousness bool
}

func (o Options) deepEvery(n int) int {
	switch {
	case o.DeepEvery > 0:
		return o.DeepEvery
	case o.DeepEvery < 0:
		return n + 1 // only the final deep check
	}
	if n < 4 {
		return 1
	}
	return n / 4
}

func (o Options) maxViolations() int {
	if o.MaxViolations == 0 {
		return 32
	}
	return o.MaxViolations
}

func (o Options) chiAlpha() float64 {
	if o.ChiAlpha == 0 {
		return 1e-9
	}
	return o.ChiAlpha
}

// Violation is one detected divergence between the system under test
// and the reference (or an internal-consistency breach).
type Violation struct {
	// Kind: "value" (differential mismatch), "invariant" (structural),
	// "oblivious" (leaf-uniformity), "crash" (linearizability),
	// "overflow" (typed stash overflow surfaced from an access), or
	// "access" (any other access error).
	Kind   string `json:"kind"`
	Op     int    `json:"op"` // op index the violation was detected at, -1 if global
	Addr   uint64 `json:"addr"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.Op < 0 {
		return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("[%s] op %d (addr %d): %s", v.Kind, v.Op, v.Addr, v.Detail)
}

// Report is the outcome of one Check run.
type Report struct {
	Scheme     string      `json:"scheme"`
	Ops        int         `json:"ops"`
	Violations []Violation `json:"violations,omitempty"`
	// Leaves is the observed read-path leaf per access (empty for
	// schemes without a tree).
	Leaves      []oram.Leaf `json:"leaves,omitempty"`
	Chi2        float64     `json:"chi2"`
	Chi2P       float64     `json:"chi2_p"`
	Chi2Bins    int         `json:"chi2_bins"`
	Chi2Skipped bool        `json:"chi2_skipped,omitempty"` // probe skipped (no tree, too few samples, or opted out)
	DeepChecks  int         `json:"deep_checks"`
}

// OK reports whether the run found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) add(opts Options, v Violation) bool {
	if len(r.Violations) < opts.maxViolations() {
		r.Violations = append(r.Violations, v)
	}
	return len(r.Violations) < opts.maxViolations()
}

// Check drives ops through the target, diffing every returned value
// against the plain-map reference, running deep checks (structural
// invariants plus a full address sweep) at DeepEvery boundaries, and
// finishing with the leaf-uniformity probe. It returns a non-nil Report
// unless the target itself is unusable.
func Check(t Target, ops []Op, opts Options) (*Report, error) {
	rep := &Report{Scheme: t.Scheme().String(), Ops: len(ops)}
	ref := newRefStore(t.BlockBytes())
	deepEvery := opts.deepEvery(len(ops))
	leaves := t.Leaves()

	deep := func(i int) bool {
		rep.DeepChecks++
		for _, err := range t.Invariants() {
			if !rep.add(opts, Violation{Kind: "invariant", Op: i, Detail: err.Error()}) {
				return false
			}
		}
		for a := uint64(0); a < t.NumBlocks(); a++ {
			got, err := t.Peek(oram.Addr(a))
			if err != nil {
				if !rep.add(opts, Violation{Kind: "value", Op: i, Addr: a, Detail: fmt.Sprintf("peek failed: %v", err)}) {
					return false
				}
				continue
			}
			if want := ref.get(a); !bytes.Equal(got, want) {
				if !rep.add(opts, Violation{Kind: "value", Op: i, Addr: a,
					Detail: fmt.Sprintf("sweep mismatch: got %.16q want %.16q", got, want)}) {
					return false
				}
			}
		}
		return true
	}

	for i, op := range ops {
		kind, data := oram.OpRead, []byte(nil)
		if op.Write {
			kind, data = oram.OpWrite, op.Data
		}
		got, leaf, err := t.Access(kind, oram.Addr(op.Addr), data)
		if err != nil {
			k := "access"
			if errors.Is(err, oram.ErrStashOverflow) {
				k = "overflow"
			}
			rep.add(opts, Violation{Kind: k, Op: i, Addr: op.Addr, Detail: err.Error()})
			return rep, nil // the target is wedged; stop driving it
		}
		// Both reads and writes return the pre-op value under test.
		if want := ref.get(op.Addr); !bytes.Equal(got, want) {
			if !rep.add(opts, Violation{Kind: "value", Op: i, Addr: op.Addr,
				Detail: fmt.Sprintf("%s: got %.16q want %.16q", op, got, want)}) {
				return rep, nil
			}
		}
		ref.apply(op)
		if leaves > 0 {
			rep.Leaves = append(rep.Leaves, leaf)
		}
		if (i+1)%deepEvery == 0 || i == len(ops)-1 {
			if !deep(i) {
				return rep, nil
			}
		}
	}

	if opts.SkipObliviousness || leaves == 0 {
		rep.Chi2Skipped = true
		return rep, nil
	}
	chi2, p, bins, ok := LeafUniformity(rep.Leaves, leaves)
	rep.Chi2, rep.Chi2P, rep.Chi2Bins, rep.Chi2Skipped = chi2, p, bins, !ok
	if ok && p < opts.chiAlpha() {
		rep.add(opts, Violation{Kind: "oblivious", Op: -1,
			Detail: fmt.Sprintf("leaf sequence rejects uniformity: chi2=%.2f over %d bins, p=%.3g < alpha=%.3g", chi2, bins, p, opts.chiAlpha())})
	}
	return rep, nil
}

// CheckScheme builds a fresh target from p, runs Check over ops and
// closes the target: its images are freed and a durable store takes its
// final persist barrier, whose failure is the error. A StoreDir that
// already holds a store is an error (see NoStoreAt).
func CheckScheme(p Params, ops []Op, opts Options) (*Report, error) {
	if err := NoStoreAt(p.StoreDir); err != nil {
		return nil, err
	}
	t, err := NewTarget(p)
	if err != nil {
		return nil, err
	}
	rep, err := Check(t, ops, opts)
	if c, ok := t.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return rep, err
}

// NoStoreAt returns an error naming dir when dir already holds a durable
// store, committed or damaged: the reference a check diffs against
// starts from zero, so recovering an earlier run's store would report
// every value that run wrote as a violation. An empty dir names no store
// and is not looked at; a real one is probed without being loaded or
// changed (filestore.Probe).
func NoStoreAt(dir string) error {
	if dir == "" {
		return nil
	}
	if _, _, err := filestore.Probe(dir); !errors.Is(err, filestore.ErrNoStore) {
		return fmt.Errorf("oracle: %s already holds a store; a check starts from zero and needs a fresh directory", dir)
	}
	return nil
}
