package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
)

// runTwin drives two controllers through the same op mix and fails on
// the first divergence in returned value or path leaf.
func runTwin(t *testing.T, a, b *Controller, nOps int) {
	t.Helper()
	n := a.ORAM.NumBlocks()
	bb := a.Cfg.BlockBytes
	r := lcg{s: 99}
	for i := 0; i < nOps; i++ {
		addr := oram.Addr(r.n(int(n)))
		op, data := oram.OpRead, []byte(nil)
		if r.n(2) == 0 {
			op = oram.OpWrite
			data = blockVal(addr, i, bb)
		}
		ra, errA := a.Access(op, addr, data)
		rb, errB := b.Access(op, addr, data)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("op %d: error divergence: %v vs %v", i, errA, errB)
		}
		if errA != nil {
			t.Fatalf("op %d: %v", i, errA)
		}
		if !bytes.Equal(ra.Value, rb.Value) {
			t.Fatalf("op %d addr %d: value divergence", i, addr)
		}
		if ra.PathLeaf != rb.PathLeaf {
			t.Fatalf("op %d addr %d: leaf divergence %d vs %d", i, addr, ra.PathLeaf, rb.PathLeaf)
		}
	}
}

// sameSlot requires two sealed slots to agree byte-for-byte: same IVs,
// same sealed header, same sealed payload.
func sameSlot(t *testing.T, what string, a, b oram.Slot) {
	t.Helper()
	if a.IV1 != b.IV1 || a.IV2 != b.IV2 {
		t.Fatalf("%s: IV divergence", what)
	}
	if !bytes.Equal(a.SealedHeader, b.SealedHeader) {
		t.Fatalf("%s: sealed header divergence", what)
	}
	if !bytes.Equal(a.SealedData, b.SealedData) {
		t.Fatalf("%s: sealed data divergence", what)
	}
}

// TestLazySealByteEquivalence is the overlay's acceptance check:
// sealing is only an observation. An in-memory controller, whose image
// seals nothing until it is read, must return the same values and
// leaves as a durable twin, whose store every persist barrier seals.
// Afterwards every slot of the in-memory image, sealed by reading it,
// must be the seal (SealBlockIVs, DummySlotIVs) under its IVs of the
// plaintext the overlay held before the read, and the durable store's
// bytes.
func TestLazySealByteEquivalence(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline, config.SchemeNaivePSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			opts := Options{NumBlocks: 128, Levels: 6}
			lazy, err := New(scheme, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.GroupCommit = GroupCommit{MaxOps: 64} // keeps the twin's fsyncs off the test's clock
			opts.StoreDir = filepath.Join(t.TempDir(), "store")
			dur, err := New(scheme, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			runTwin(t, dur, lazy, 300)
			if err := dur.FlushCommits(); err != nil {
				t.Fatal(err)
			}

			img, e, tree := lazy.ORAM.Image, lazy.ORAM.Engine, lazy.ORAM.Tree
			for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
				for z := 0; z < tree.Z; z++ {
					what := fmt.Sprintf("bucket %d slot %d", bucket, z)
					addr, leaf, ver, dummy, ok := img.PlainHeader(bucket, z)
					if !ok {
						t.Fatalf("%s: no overlay entry", what)
					}
					plain := append([]byte(nil), img.PlainData(bucket, z)...)
					got := img.Slot(bucket, z)
					hdr, data := make([]byte, oram.HeaderBytes), make([]byte, cfg.BlockBytes)
					want := oram.DummySlotIVs(e, cfg.BlockBytes, got.IV1, got.IV2, hdr, data)
					if !dummy {
						want = oram.SealBlockIVs(e, oram.Block{Addr: addr, Leaf: leaf, Ver: ver, Data: plain}, got.IV1, got.IV2, hdr, data)
					}
					sameSlot(t, what+" against the seal of its plaintext", got, want)
					sameSlot(t, what+" against the durable store", got, dur.Storage().Slot(bucket, z))
				}
			}
		})
	}
}

// TestStageNanosAccumulate: every protocol stage must account some wall
// time on the flat persistent path (the serving layer differences these
// snapshots; a stage stuck at zero means a misplaced cursor). The
// persist stage only ticks on durable controllers — an in-memory
// controller has no barrier, so it must stay at exactly zero there.
func TestStageNanosAccumulate(t *testing.T) {
	mem := newCtl(t, config.SchemePSORAM)
	dur, err := New(config.SchemePSORAM, testCfg(), Options{NumBlocks: 100, Levels: 5, StoreDir: t.TempDir() + "/store"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	for _, ctl := range []*Controller{mem, dur} {
		buf := make([]byte, ctl.Cfg.BlockBytes)
		for i := 0; i < 64; i++ {
			if _, err := ctl.Access(oram.OpWrite, oram.Addr(i%32), buf); err != nil {
				t.Fatal(err)
			}
		}
		ns := ctl.StageNanos()
		for s, v := range ns {
			if s == StagePersist && ctl.Storage() == nil {
				if v != 0 {
					t.Errorf("in-memory controller accumulated %dns of persist time", v)
				}
				continue
			}
			if v <= 0 {
				t.Errorf("stage %s accumulated %dns over 64 accesses", StageNames[s], v)
			}
		}
		if t.Failed() {
			t.Log(fmt.Sprint(ns))
		}
	}
}

// TestStageClockCoversTheAccess: the stage cursor is a monotonic-clock
// offset from a package epoch, so no stage may ever run backwards, and
// the five stages together must account for most of the wall time of
// the accesses and never more than all of it — a cursor left stale
// across accesses would overshoot, a dropped stageAdd undershoot.
func TestStageClockCoversTheAccess(t *testing.T) {
	cfg := config.Default()
	ctl, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 2048, Levels: 10, Untimed: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockBytes)
	last := ctl.StageNanos()
	var sum int64
	start := time.Now()
	for i := 0; i < 2000; i++ {
		op, data := oram.OpRead, []byte(nil)
		if i%2 == 0 {
			op, data = oram.OpWrite, buf
		}
		if _, err := ctl.Access(op, oram.Addr((i*7)%2048), data); err != nil {
			t.Fatal(err)
		}
		now := ctl.StageNanos()
		for s := range now {
			d := now[s] - last[s]
			if d < 0 {
				t.Fatalf("access %d: stage %s ran backwards by %dns", i, StageNames[s], -d)
			}
			sum += d
		}
		last = now
	}
	wall := int64(time.Since(start))
	t.Logf("stages sum to %dns of %dns wall (%.2f)", sum, wall, float64(sum)/float64(wall))
	if sum < wall/2 || sum > wall {
		t.Errorf("stage sum outside [0.50, 1.00] of the wall time")
	}
}

// TestBornLazySnapshotIdentity: every controller is built born lazy —
// nothing sealed at construction. An in-memory one seals a slot only
// when it is read, in the record form; a durable one keeps per-slot
// entries and seals each written slot into its backend at every persist
// barrier. For the same seed and op stream the two must hold the same
// durable state byte for byte, right after construction and after 2000
// accesses: when a slot is sealed does not change a single observable
// bit.
func TestBornLazySnapshotIdentity(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			opts := Options{NumBlocks: 100, Levels: 5}
			born, err := New(scheme, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.GroupCommit = GroupCommit{MaxOps: 64} // keeps the durable twin's fsyncs off the test's clock
			opts.StoreDir = filepath.Join(t.TempDir(), "store")
			dur, err := New(scheme, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			snapshots := func(when string) {
				t.Helper()
				var a, b bytes.Buffer
				if err := born.SaveDurable(&a); err != nil {
					t.Fatal(err)
				}
				if err := dur.SaveDurable(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%s: SaveDurable of the in-memory and the durable controller differ", when)
				}
			}
			snapshots("after construction")
			runTwin(t, dur, born, 2000)
			snapshots("after 2000 accesses")
		})
	}
}
