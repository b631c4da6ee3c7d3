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

// compareImages materializes any deferred seals and requires the two
// tree images to agree byte-for-byte: same IVs, same sealed header, same
// sealed payload in every slot.
func compareImages(t *testing.T, a, b *Controller) {
	t.Helper()
	a.ORAM.Image.DisableLazySeal()
	b.ORAM.Image.DisableLazySeal()
	tree := a.ORAM.Tree
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		for z := 0; z < tree.Z; z++ {
			sa := a.ORAM.Image.Slot(bucket, z)
			sb := b.ORAM.Image.Slot(bucket, z)
			if sa.IV1 != sb.IV1 || sa.IV2 != sb.IV2 {
				t.Fatalf("bucket %d slot %d: IV divergence", bucket, z)
			}
			if !bytes.Equal(sa.SealedHeader, sb.SealedHeader) {
				t.Fatalf("bucket %d slot %d: sealed header divergence", bucket, z)
			}
			if !bytes.Equal(sa.SealedData, sb.SealedData) {
				t.Fatalf("bucket %d slot %d: sealed data divergence", bucket, z)
			}
		}
	}
}

// TestLazySealByteEquivalence is the lazy-seal overlay's acceptance
// check: a controller running with deferred seals must return the same
// values and leaves as an eager twin, and after materialization the two
// sealed tree images must be byte-identical — the overlay only moves the
// AES in time, never changes a single ciphertext bit.
func TestLazySealByteEquivalence(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline, config.SchemeNaivePSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			lazy, err := New(scheme, cfg, Options{NumBlocks: 128, Levels: 6})
			if err != nil {
				t.Fatal(err)
			}
			if !lazy.ORAM.Image.LazySeal() {
				t.Fatal("in-memory controller did not arm the lazy-seal overlay")
			}
			eager, err := New(scheme, cfg, Options{NumBlocks: 128, Levels: 6})
			if err != nil {
				t.Fatal(err)
			}
			eager.ORAM.Image.DisableLazySeal() // strict pre-overlay eager path
			runTwin(t, eager, lazy, 300)
			compareImages(t, eager, lazy)
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
	dur, _, err := NewDurable(config.SchemePSORAM, testCfg(), Options{NumBlocks: 100, Levels: 5}, t.TempDir()+"/store")
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

// TestBornLazySnapshotIdentity: an in-memory controller is built born
// lazy — nothing sealed at construction — while a durable one is built
// the old way, every slot sealed eagerly into its backend. For the same
// seed and op stream the two must hold the same durable state byte for
// byte, right after construction and after 2000 accesses: "born lazy"
// defers work, it does not change a single observable bit.
func TestBornLazySnapshotIdentity(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			opts := Options{NumBlocks: 100, Levels: 5}
			born, err := New(scheme, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.GroupCommit = GroupCommit{MaxOps: 64} // keeps the eager twin's fsyncs off the test's clock
			eager, _, err := NewDurable(scheme, cfg, opts, filepath.Join(t.TempDir(), "store"))
			if err != nil {
				t.Fatal(err)
			}
			defer eager.Close()
			snapshots := func(when string) {
				t.Helper()
				var a, b bytes.Buffer
				if err := born.SaveDurable(&a); err != nil {
					t.Fatal(err)
				}
				if err := eager.SaveDurable(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%s: SaveDurable of the born-lazy and the eagerly built controller differ", when)
				}
			}
			snapshots("after construction")
			runTwin(t, eager, born, 2000)
			snapshots("after 2000 accesses")
		})
	}
}
