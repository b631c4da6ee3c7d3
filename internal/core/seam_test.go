package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/rng"
)

// The memory-model seam: a controller over the untimed model must be the
// same functional machine as one over the timed NVM model — same values,
// leaves, stash, counters, IV/version streams and durable bytes — and
// must recover from a crash at any declared point into the same state.
// Only Now() may differ.

const seamBlocks, seamLevels = 200, 7

// seamCfg sizes a controller for the seam tests. smallWPQ shrinks the
// WPQs below a path so the flat persistent schemes take the ordered
// multi-batch eviction.
func seamCfg(scheme config.Scheme, smallWPQ bool) config.Config {
	cfg := config.Default()
	cfg.Seed = 0x5ea3
	cfg.StashEntries = 150
	cfg.TempPosMapSize = 16
	cfg.WriteBufferEntries = 16
	cfg.OnChipPosMapBytes = 4 * 64 * 8 // small on-chip budget -> real recursion
	if smallWPQ {
		cfg.DataWPQEntries, cfg.PosMapWPQEntries = 8, 8
	}
	if scheme.Policy().Recursive {
		cfg.DataWPQEntries = 4 * (seamLevels + 1) * cfg.Z
	}
	return cfg
}

// seamPair builds one controller per model from the same configuration.
func seamPair(t *testing.T, scheme config.Scheme, smallWPQ bool) (timed, untimed *core.Controller) {
	t.Helper()
	cfg := seamCfg(scheme, smallWPQ)
	opts := core.Options{NumBlocks: seamBlocks, Levels: seamLevels}
	timed, err := core.New(scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Untimed = true
	untimed, err = core.New(scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return timed, untimed
}

// seamVariant is one controller configuration the seam tests cover.
type seamVariant struct {
	scheme   config.Scheme
	smallWPQ bool
}

type seamOp struct {
	op   oram.Op
	addr oram.Addr
	data []byte
}

// seamStream is a seeded stream of n operations, half of them writes:
// uniform over the keyspace, or with 90% of the operations on 8 hot
// addresses.
func seamStream(seed uint64, n int, hot bool) []seamOp {
	r := rng.New(seed)
	ops := make([]seamOp, n)
	for i := range ops {
		addr := r.Uint64() % seamBlocks
		if hot && r.Uint64()%10 != 0 {
			addr = (addr % 8) * 23
		}
		ops[i] = seamOp{op: oram.OpRead, addr: oram.Addr(addr)}
		if r.Uint64()&1 == 1 {
			data := make([]byte, config.Default().BlockBytes)
			copy(data, fmt.Sprintf("a%d.op%d", addr, i))
			ops[i].op, ops[i].data = oram.OpWrite, data
		}
	}
	return ops
}

// stashRow is the comparable content of one stash entry.
type stashRow struct {
	Addr         oram.Addr
	Leaf         oram.Leaf
	Ver          uint32
	Data         string
	Backup       bool
	BackupLeaf   oram.Leaf
	PendingRemap bool
	RemapSeq     uint64
}

func stashRows(s *oram.Stash) []stashRow {
	var rows []stashRow
	for _, b := range append(s.Live(), s.Backups()...) {
		rows = append(rows, stashRow{b.Addr, b.Leaf, b.Ver, string(b.Data), b.Backup, b.BackupLeaf, b.PendingRemap, b.RemapSeq})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Backup != b.Backup {
			return b.Backup
		}
		return a.BackupLeaf < b.BackupLeaf
	})
	return rows
}

// imageBytes serializes every sealed slot of an image (IVs included).
func imageBytes(img *oram.Image) []byte {
	var buf bytes.Buffer
	for b := uint64(0); b < img.Tree.Buckets(); b++ {
		for z := 0; z < img.Tree.Z; z++ {
			s := img.Slot(b, z)
			fmt.Fprintf(&buf, "%x.%x.", s.IV1, s.IV2)
			buf.Write(s.SealedHeader)
			buf.Write(s.SealedData)
		}
	}
	return buf.Bytes()
}

// sameState requires two controllers to hold the same functional state:
// stash, working/temporary/durable position maps, every tree image, the
// seal-version cursor, both counter registries and, where the scheme
// snapshots, a byte-identical durable snapshot.
func sameState(t *testing.T, when string, timed, untimed *core.Controller) {
	t.Helper()
	if a, b := stashRows(timed.ORAM.Stash), stashRows(untimed.ORAM.Stash); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stash diverged:\ntimed   %+v\nuntimed %+v", when, a, b)
	}
	for a := oram.Addr(0); a < seamBlocks; a++ {
		if x, y := timed.ORAM.PosMap.Lookup(a), untimed.ORAM.PosMap.Lookup(a); x != y {
			t.Fatalf("%s: working PosMap[%d] = %d timed, %d untimed", when, a, x, y)
		}
		if x, y := timed.DurablePosMap().Lookup(a), untimed.DurablePosMap().Lookup(a); x != y {
			t.Fatalf("%s: durable PosMap[%d] = %d timed, %d untimed", when, a, x, y)
		}
		xl, xok := timed.Temp.Lookup(a)
		yl, yok := untimed.Temp.Lookup(a)
		if xl != yl || xok != yok {
			t.Fatalf("%s: temporary PosMap[%d] = %d/%v timed, %d/%v untimed", when, a, xl, xok, yl, yok)
		}
	}
	if !bytes.Equal(imageBytes(timed.ORAM.Image), imageBytes(untimed.ORAM.Image)) {
		t.Fatalf("%s: data tree images diverged", when)
	}
	if timed.Rec != nil {
		for i := range timed.Rec.Levels {
			if !bytes.Equal(imageBytes(timed.Rec.Levels[i].Image), imageBytes(untimed.Rec.Levels[i].Image)) {
				t.Fatalf("%s: PosMap tree %d images diverged", when, i+1)
			}
		}
	}
	if a, b := timed.ORAM.VerSeq(), untimed.ORAM.VerSeq(); a != b {
		t.Fatalf("%s: seal-version cursor %d timed, %d untimed", when, a, b)
	}
	if a, b := timed.Mem.Counters().Snapshot(), untimed.Mem.Counters().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: memory counters diverged:\ntimed   %v\nuntimed %v", when, a, b)
	}
	if a, b := timed.Counters().Snapshot(), untimed.Counters().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: controller counters diverged:\ntimed   %v\nuntimed %v", when, a, b)
	}
	if timed.Rec == nil {
		var a, b bytes.Buffer
		if err := timed.SaveDurable(&a); err != nil {
			t.Fatal(err)
		}
		if err := untimed.SaveDurable(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: durable snapshots diverged", when)
		}
	}
}

// sameAccess runs one operation on both controllers and requires the
// same outcome.
func sameAccess(t *testing.T, i int, o seamOp, timed, untimed *core.Controller) (crashed bool) {
	t.Helper()
	a, errA := timed.Access(o.op, o.addr, o.data)
	b, errB := untimed.Access(o.op, o.addr, o.data)
	if !errors.Is(errA, errB) && !errors.Is(errB, errA) {
		t.Fatalf("op %d: timed err %v, untimed err %v", i, errA, errB)
	}
	if errors.Is(errA, core.ErrCrashed) {
		return true
	}
	if errA != nil {
		t.Fatalf("op %d: %v", i, errA)
	}
	if !bytes.Equal(a.Value, b.Value) || a.PathLeaf != b.PathLeaf ||
		a.DirtyEntries != b.DirtyEntries || a.EvictedBlocks != b.EvictedBlocks || a.ChainBlocks != b.ChainBlocks {
		t.Fatalf("op %d addr %d: timed %+v, untimed %+v", i, o.addr, a, b)
	}
	return false
}

func TestSeamDifferential(t *testing.T) {
	nOps := 5000
	if testing.Short() {
		nOps = 1000
	}
	variants := []seamVariant{
		{config.SchemePSORAM, false},
		{config.SchemePSORAM, true},
		{config.SchemeNaivePSORAM, false},
		{config.SchemeRcrPSORAM, false},
		{config.SchemeBaseline, false},
	}
	for _, v := range variants {
		for _, hot := range []bool{false, true} {
			name := v.scheme.String()
			if v.smallWPQ {
				name += "/small-wpq"
			}
			if hot {
				name += "/hot-set"
			} else {
				name += "/uniform"
			}
			v, hot := v, hot
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				timed, untimed := seamPair(t, v.scheme, v.smallWPQ)
				for i, o := range seamStream(17, nOps, hot) {
					if sameAccess(t, i, o, timed, untimed) {
						t.Fatalf("op %d: crashed with no injector armed", i)
					}
				}
				sameState(t, "after the stream", timed, untimed)
				if timed.Now() == 0 {
					t.Error("the timed controller's clock never moved")
				}
				if s := untimed.Mem.DeviceStats(); s.Reads+s.Writes != 0 {
					t.Errorf("the untimed controller scheduled device commands: %+v", s)
				}
			})
		}
	}
}

// TestSeamCrashEquivalence crashes both models at every declared crash
// point of the WPQ-persistent schemes — at the first, a middle and the
// last sub-step each step offers — and requires recovery to land on the
// same state and the run to continue identically afterwards.
func TestSeamCrashEquivalence(t *testing.T) {
	const warm, crashAccess, after = 80, 80, 40
	variants := []seamVariant{
		{config.SchemePSORAM, false},
		{config.SchemePSORAM, true},
		{config.SchemeNaivePSORAM, false},
		{config.SchemeNaivePSORAM, true},
		{config.SchemeRcrPSORAM, false},
	}
	ops := seamStream(29, warm+1+after, false)
	for _, v := range variants {
		// Which sub-steps does each step of the crashing access offer?
		subs := map[int][]int{}
		{
			probe, _ := seamPair(t, v.scheme, v.smallWPQ)
			probe.CrashAt = func(p core.CrashPoint) bool {
				if p.Access == crashAccess {
					subs[p.Step] = append(subs[p.Step], p.Sub)
				}
				return false
			}
			for i, o := range ops[:warm+1] {
				if _, err := probe.Access(o.op, o.addr, o.data); err != nil {
					t.Fatalf("%v probe op %d: %v", v.scheme, i, err)
				}
			}
		}
		for _, step := range core.DeclaredStepsFor(v.scheme) {
			offered := subs[step]
			if len(offered) == 0 {
				t.Errorf("%v: declared step %d offered no crash point", v.scheme, step)
				continue
			}
			for _, k := range uniqueInts(0, len(offered)/2, len(offered)-1) {
				step, k, v := step, k, v
				t.Run(fmt.Sprintf("%v/small-wpq=%v/step%d.%d", v.scheme, v.smallWPQ, step, offered[k]), func(t *testing.T) {
					t.Parallel()
					timed, untimed := seamPair(t, v.scheme, v.smallWPQ)
					for _, c := range []*core.Controller{timed, untimed} {
						seen := 0
						c.CrashAt = func(p core.CrashPoint) bool {
							if p.Access != crashAccess || p.Step != step {
								return false
							}
							seen++
							return seen == k+1
						}
					}
					for i, o := range ops[:warm] {
						if sameAccess(t, i, o, timed, untimed) {
							t.Fatalf("op %d: crashed before the armed access", i)
						}
					}
					if !sameAccess(t, warm, ops[warm], timed, untimed) {
						t.Fatal("the armed crash point never fired")
					}
					for _, c := range []*core.Controller{timed, untimed} {
						c.CrashAt = nil
						if err := c.Recover(); err != nil {
							t.Fatal(err)
						}
					}
					for a := oram.Addr(0); a < seamBlocks; a++ {
						x, errX := timed.Peek(a)
						y, errY := untimed.Peek(a)
						if (errX == nil) != (errY == nil) || !bytes.Equal(x, y) {
							t.Fatalf("recovered block %d: timed %q (%v), untimed %q (%v)", a, x, errX, y, errY)
						}
					}
					sameState(t, "after recovery", timed, untimed)
					for i, o := range ops[warm+1:] {
						if sameAccess(t, warm+1+i, o, timed, untimed) {
							t.Fatalf("op %d: crashed after recovery", warm+1+i)
						}
					}
					sameState(t, "after the post-recovery run", timed, untimed)
				})
			}
		}
	}
}

// uniqueInts returns its arguments in order with duplicates dropped.
func uniqueInts(xs ...int) []int {
	var out []int
	for _, x := range xs {
		dup := false
		for _, y := range out {
			dup = dup || x == y
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}
