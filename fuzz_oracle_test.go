package psoram

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// fuzzSchemes are the schemes the access-sequence fuzzer rotates
// through: the persistent flagship, the naive variant, eADR, and the
// volatile baseline as a control.
var fuzzSchemes = []config.Scheme{
	config.SchemePSORAM,
	config.SchemeNaivePSORAM,
	config.SchemeEADRORAM,
	config.SchemeBaseline,
}

// FuzzOracleAccessSequence decodes an arbitrary op sequence from the
// fuzz input and pushes it through the differential oracle: value
// mismatches against the plain-map reference and structural-invariant
// breaches fail the run. The obliviousness probe is deliberately off —
// a coverage-guided fuzzer can steer any statistical test below any
// threshold, so it would only manufacture false positives here.
func FuzzOracleAccessSequence(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(1), []byte{9, 0, 9, 1, 9, 2, 9, 3})
	f.Add(uint8(3), bytes.Repeat([]byte{31, 8}, 30))

	bb := config.Default().BlockBytes
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		if len(raw) > 160 {
			raw = raw[:160]
		}
		scheme := fuzzSchemes[int(sel)%len(fuzzSchemes)]
		const blocks = 32
		var ops []oracle.Op
		version := 0
		for i := 0; i+1 < len(raw); i += 2 {
			addr := uint64(raw[i]) % blocks
			if raw[i+1]%2 == 1 {
				version++
				ops = append(ops, oracle.Op{Write: true, Addr: addr, Data: oracle.Value(addr, version, bb)})
			} else {
				ops = append(ops, oracle.Op{Addr: addr})
			}
		}
		rep, err := oracle.CheckScheme(
			oracle.Params{Scheme: scheme, NumBlocks: blocks, Levels: 4, Seed: 11},
			ops, oracle.Options{SkipObliviousness: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", scheme, v)
		}

		// File-backed variant: the same sequence against a durable store
		// that is closed and reopened at a fuzzer-chosen cut, differenced
		// access-by-access against an in-memory twin that never restarts.
		// The persistent schemes promise the reopen is invisible at the
		// value level, so any divergence is a crash-consistency bug.
		fuzzDurableReopen(t, sel, raw, ops)
	})
}

// fuzzDurableReopen runs ops through (a) an in-memory controller and
// (b) a file-backed controller torn down and recovered mid-sequence,
// requiring identical values throughout and on a final sweep.
func fuzzDurableReopen(t *testing.T, sel uint8, raw []byte, ops []oracle.Op) {
	if len(ops) == 0 {
		return
	}
	if len(ops) > 24 {
		ops = ops[:24] // each file op carries several fsyncs; keep an exec cheap
	}
	scheme := config.SchemePSORAM
	if sel%2 == 1 {
		scheme = config.SchemeNaivePSORAM
	}
	cut := int(raw[0]) % (len(ops) + 1)

	const blocks = 32
	cfg := config.Default()
	cfg.Seed = 11
	opts := core.Options{NumBlocks: blocks, Levels: 4}
	mem, err := core.New(scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	fc, created, err := core.NewDurable(scheme, cfg, opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("durable controller reopened a store in a fresh dir")
	}
	for i, op := range ops {
		if i == cut {
			if err := fc.Close(); err != nil {
				t.Fatalf("close at cut %d: %v", cut, err)
			}
			if fc, created, err = core.NewDurable(scheme, cfg, opts, dir); err != nil {
				t.Fatalf("reopen at cut %d: %v", cut, err)
			}
			if created {
				t.Fatalf("reopen at cut %d recreated instead of recovering", cut)
			}
		}
		kind, data := oram.OpRead, []byte(nil)
		if op.Write {
			kind, data = oram.OpWrite, op.Data
		}
		rm, err := mem.Access(kind, oram.Addr(op.Addr), data)
		if err != nil {
			t.Fatalf("mem op %d: %v", i, err)
		}
		rf, err := fc.Access(kind, oram.Addr(op.Addr), data)
		if err != nil {
			t.Fatalf("%s file op %d (cut %d): %v", scheme, i, cut, err)
		}
		if !bytes.Equal(rm.Value, rf.Value) {
			t.Fatalf("%s op %d (cut %d): mem %.16q, file %.16q", scheme, i, cut, rm.Value, rf.Value)
		}
	}
	for a := uint64(0); a < blocks; a++ {
		vm, errM := mem.Peek(oram.Addr(a))
		vf, errF := fc.Peek(oram.Addr(a))
		if (errM == nil) != (errF == nil) {
			t.Fatalf("%s addr %d (cut %d): mem err %v, file err %v", scheme, a, cut, errM, errF)
		}
		if !bytes.Equal(vm, vf) {
			t.Fatalf("%s addr %d (cut %d): mem %.16q, file %.16q", scheme, a, cut, vm, vf)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzStashEviction drives a small Baseline controller through
// fuzzer-chosen accesses, then checks the eviction planner on a
// fuzzer-chosen leaf: the plan plus the unplaced remainder must be
// exactly the ordered input (nothing dropped, nothing duplicated), and
// every placed block must land at a level on the path to its own
// target leaf.
func FuzzStashEviction(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3})
	f.Add(uint16(7), []byte{20, 0, 20, 1, 20, 2})
	f.Add(uint16(512), bytes.Repeat([]byte{5, 13, 21}, 10))

	cfg := config.Default()
	cfg.BlockBytes, cfg.StashEntries, cfg.Seed = 16, 64, 5
	cfg.CapacityBytes = oram.NewTree(4, cfg.Z).Slots() * 16 // a stash of 64 exceeds its path
	f.Fuzz(func(t *testing.T, leafSel uint16, raw []byte) {
		if len(raw) > 96 {
			raw = raw[:96]
		}
		ctl, err := core.New(config.SchemeBaseline, cfg, core.Options{NumBlocks: 24, Levels: 4, Untimed: true})
		if err != nil {
			t.Fatal(err)
		}
		c := ctl.ORAM
		for _, b := range raw {
			if _, err := ctl.Access(oram.OpRead, oram.Addr(uint64(b)%c.NumBlocks()), nil); err != nil {
				t.Fatal(err)
			}
		}
		l := oram.Leaf(uint64(leafSel) % c.Tree.Leaves())
		ordered := c.DefaultEvictionOrder(l)
		plan := make([][]*oram.StashBlock, c.Tree.L+1)
		for k := range plan {
			plan[k] = make([]*oram.StashBlock, c.Tree.Z)
		}
		unplaced := c.PlanEvictionInto(l, ordered, plan, make([]int, c.Tree.L+1), nil)

		// Multiset equality via pointer counts: plan ∪ unplaced == ordered.
		want := make(map[*oram.StashBlock]int, len(ordered))
		for _, b := range ordered {
			want[b]++
		}
		for k, lvl := range plan {
			for _, b := range lvl {
				if b == nil {
					continue
				}
				want[b]--
				if want[b] < 0 {
					t.Fatalf("block %d placed more times than it appears in the order", b.Addr)
				}
				if deepest := c.Tree.IntersectLevel(l, b.TargetLeaf()); k > deepest {
					t.Fatalf("block %d (target leaf %d) placed at level %d below its deepest legal level %d",
						b.Addr, b.TargetLeaf(), k, deepest)
				}
			}
		}
		for _, b := range unplaced {
			want[b]--
			if want[b] < 0 {
				t.Fatalf("block %d appears in unplaced more times than in the order", b.Addr)
			}
		}
		for b, n := range want {
			if n != 0 {
				t.Fatalf("block %d dropped by the planner (%d unaccounted)", b.Addr, n)
			}
		}
	})
}
