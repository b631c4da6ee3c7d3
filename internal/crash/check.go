package crash

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/oracle"
)

// CheckOptions tunes a Check run.
type CheckOptions struct {
	// Steps to inject at; nil means core.DeclaredStepsFor(scheme).
	Steps []int
	// AccessIndices are the access counts after which each step fires
	// (one trial per step × index); nil derives {1, n/2, n-2}.
	AccessIndices []uint64
	// PostRecover, if set, runs on the controller after every successful
	// recovery and before the state comparison — the mutation-testing
	// hook: sabotage the recovered state here and the check must object.
	// Trials run concurrently, each on its own controller.
	PostRecover func(*core.Controller)
}

// maxViolations caps the violations a Report records.
const maxViolations = 32

// Report is the outcome of one Check run.
type Report struct {
	Scheme     string              `json:"scheme"`
	Trials     []oracle.CrashTrial `json:"trials"`
	StepsFired map[int]int         `json:"steps_fired"` // step -> number of trials in which it fired
	Violations []oracle.Violation  `json:"violations,omitempty"`
}

// OK reports whether the run found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) add(v oracle.Violation) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, v)
	}
}

// Check tortures the functional system p describes with crash injection.
// For every requested (step, access-index) pair it arms the first point
// of that step offered at or after that access — found by one unarmed
// pass over the ops — on a fresh system, and runs it as one trial; the
// trials run through runTrials and are reported in request order.
// Persistent schemes must recover to prefix i or i+1; the baselines must
// not fabricate bytes. Every requested step must fire at least once
// across the run, so a protocol change that stops exposing a declared
// point is itself a violation.
//
// With a StoreDir, the probe and every trial get a store of their own
// under it, and a directory that already holds one is an error
// (oracle.NoStoreAt), checked before any op runs.
func Check(p oracle.Params, ops []oracle.Op, o CheckOptions) (*Report, error) {
	if len(ops) < 2 {
		return nil, fmt.Errorf("crash: Check needs at least 2 ops, got %d", len(ops))
	}
	steps := o.Steps
	if steps == nil {
		steps = core.DeclaredStepsFor(p.Scheme)
	}
	afters := o.AccessIndices
	if afters == nil {
		n := uint64(len(ops))
		afters = []uint64{1, n / 2, n - 2}
		slices.Sort(afters)
		afters = slices.Compact(afters)
	}
	type offer struct {
		step  int
		after uint64
	}
	// offers[n] runs in dirs[n+1]; dirs[0] is the probe's.
	var offers []offer
	dirs := []string{"probe"}
	for _, step := range steps {
		for _, after := range afters {
			offers = append(offers, offer{step, after})
			dirs = append(dirs, fmt.Sprintf("trial-s%d-a%d", step, after))
		}
	}
	// in returns p with its store, if any, in its own subdirectory.
	in := func(dir string) oracle.Params {
		tp := p
		if p.StoreDir != "" {
			tp.StoreDir = filepath.Join(p.StoreDir, dir)
		}
		return tp
	}
	for _, dir := range dirs {
		if err := oracle.NoStoreAt(in(dir).StoreDir); err != nil {
			return nil, err
		}
	}

	first := make(map[offer]core.CrashPoint)
	probe, err := oracle.NewController(in("probe"))
	if err != nil {
		return nil, err
	}
	probe.CrashAt = func(cp core.CrashPoint) bool {
		for _, after := range afters {
			k := offer{cp.Step, after}
			if _, seen := first[k]; !seen && cp.Access >= after {
				first[k] = cp
			}
		}
		return false
	}
	_, err = oracle.Drive(probe, ops)
	if err = errors.Join(err, probe.Close()); err != nil {
		return nil, err
	}

	var list []trial
	for n, k := range offers {
		if at, ok := first[k]; ok {
			tp := in(dirs[n+1])
			build := func() (*core.Controller, error) { return oracle.NewController(tp) }
			list = append(list, trial{build: build, ops: ops, at: at, post: o.PostRecover})
		}
	}
	trials, errs := runTrials(context.Background(), list, 0)

	rep := &Report{Scheme: p.Scheme.String(), StepsFired: make(map[int]int)}
	strict := p.Scheme.Policy().Persistent()
	for n, t := range trials {
		rep.Trials = append(rep.Trials, t)
		if t.Fired {
			rep.StepsFired[t.Point.Step]++
		}
		i := t.OpsStarted
		switch {
		case errs[n] != nil:
			rep.add(oracle.Violation{Kind: "crash", Op: i, Detail: errs[n].Error()})
		case !t.Fired:
		case strict && !t.Consistent():
			rep.add(oracle.Violation{Kind: "crash", Op: i, Detail: t.String()})
		case !strict:
			for _, a := range t.Fabricated {
				rep.add(oracle.Violation{Kind: "crash", Op: i, Addr: a,
					Detail: fmt.Sprintf("%v: recovered a value never written to addr %d", t.Point, a)})
			}
		}
	}

	for _, step := range steps {
		if rep.StepsFired[step] == 0 {
			rep.add(oracle.Violation{Kind: "crash", Op: -1,
				Detail: fmt.Sprintf("declared step %d never fired in any trial", step)})
		}
	}
	return rep, nil
}
