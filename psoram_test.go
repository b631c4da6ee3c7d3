package psoram

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

func newStore(t *testing.T, scheme Scheme) *Store {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StashEntries = 150
	s, err := New(100, WithScheme(scheme), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewFunctionalOptions pins the options constructor: each option
// lands where the deprecated positional struct used to put it (the
// wrapper-equivalence check lives in psoram_deprecated_test.go).
func TestNewFunctionalOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 150
	s, err := New(100, WithScheme(Baseline), WithConfig(cfg), WithRNGSeed(9), WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme() != Baseline {
		t.Fatalf("scheme = %v", s.Scheme())
	}
	if _, err := New(0); err == nil {
		t.Fatal("numBlocks=0 accepted")
	}

	// WithCrashInjector arms before the first access.
	s2, err := New(100, WithConfig(cfg), WithCrashInjector(func(CrashPoint) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Write(3, make([]byte, s2.BlockSize())); err != ErrCrashed {
		t.Fatalf("constructor-armed injector did not fire: %v", err)
	}
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := newStore(t, PSORAM)
	if s.BlockSize() != 64 || s.NumBlocks() != 100 || s.Scheme() != PSORAM {
		t.Fatalf("store metadata wrong: %d %d %v", s.BlockSize(), s.NumBlocks(), s.Scheme())
	}
	data := make([]byte, 64)
	copy(data, "hello oblivious world")
	if err := s.Write(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
	if s.Accesses() != 2 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	if c := s.Counters(); c["nvm.reads"] == 0 || c["nvm.writes"] == 0 {
		t.Fatalf("no NVM traffic counted: %v", c)
	}
}

func TestStoreDefaults(t *testing.T) {
	s, err := New(50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme() != PSORAM {
		t.Fatalf("default scheme = %v, want PSORAM", s.Scheme())
	}
	if _, err := New(0); err == nil {
		t.Fatal("NumBlocks unset should error")
	}
}

func TestStoreCrashRecover(t *testing.T) {
	s := newStore(t, PSORAM)
	data := make([]byte, 64)
	copy(data, "durable value")
	if err := s.Write(3, data); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(3); err == nil {
		t.Fatal("read after crash without Recover should fail")
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("lost durable value across crash: %q", got)
	}
}

// durableSchemes are the schemes that keep every acknowledged write
// across a power failure between accesses: a persistence domain, or a
// stash and PosMap built from NVM.
func durableSchemes() []Scheme {
	var out []Scheme
	for _, s := range Schemes() {
		if p := s.Policy(); p.Persistent() || p.OnChip != config.MediumSRAM {
			out = append(out, s)
		}
	}
	return out
}

// TestCrashNowKeepsAcknowledgedWrites: CrashNow is a power failure
// between accesses, so every scheme that promises durability reads back
// every acknowledged write after it and Recover, in memory and, where
// the file store covers the scheme, file-backed.
func TestCrashNowKeepsAcknowledgedWrites(t *testing.T) {
	for _, scheme := range durableSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			crashNowKeepsAcknowledgedWrites(t, scheme)
			if scheme.Policy().Storable() {
				t.Run("store", func(t *testing.T) {
					crashNowKeepsAcknowledgedWrites(t, scheme, WithStorePath(filepath.Join(t.TempDir(), "store")))
				})
			}
		})
	}
}

func crashNowKeepsAcknowledgedWrites(t *testing.T, scheme Scheme, opts ...StoreOption) {
	t.Helper()
	s, err := New(64, append([]StoreOption{WithScheme(scheme), WithRNGSeed(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := make(map[uint64][]byte)
	for a := uint64(0); a < 16; a++ {
		want[a] = make([]byte, s.BlockSize())
		copy(want[a], fmt.Sprintf("acked %d", a))
		if err := s.Write(a, want[a]); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 40; i++ {
		if _, err := s.Read(16 + i%48); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		got, err := s.Read(a)
		if err != nil {
			t.Fatalf("addr %d after CrashNow and Recover: %v", a, err)
		}
		if !bytes.Equal(got, want[a]) {
			t.Fatalf("addr %d = %.12q after CrashNow and Recover, acknowledged %.12q", a, got, want[a])
		}
	}
}

func TestStoreCrashAtHook(t *testing.T) {
	s := newStore(t, PSORAM)
	s.CrashAt(func(p CrashPoint) bool { return p.Step == 4 })
	err := s.Write(1, make([]byte, 64))
	if err != ErrCrashed {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	s.CrashAt(nil)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
}

// TestStashJudgedOnBuiltTree: the stash must exceed one path of the tree
// the store actually builds. At L=4 a path is Z*(L+1) = 20 blocks, so a
// 50-entry stash is enough, however tall a tree the default Table 3
// configuration would describe.
func TestStashJudgedOnBuiltTree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 50
	s, err := New(64, WithLevels(4), WithConfig(cfg))
	if err != nil {
		t.Fatalf("a 50-entry stash over 20-block paths was rejected: %v", err)
	}
	defer s.Close()
	if err := s.Write(3, bytes.Repeat([]byte{7}, cfg.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	cfg.StashEntries = 20
	if _, err := New(64, WithLevels(4), WithConfig(cfg)); err == nil {
		t.Fatal("a stash no larger than one path was accepted")
	}
}

func TestStoreCounters(t *testing.T) {
	s := newStore(t, PSORAM)
	if _, err := s.Read(0); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c["oram.accesses"] != 1 || c["nvm.reads"] == 0 {
		t.Fatalf("counters: %v", c)
	}
}

func TestSimulateFacade(t *testing.T) {
	res, err := Simulate(PSORAM, DefaultConfig(), "403.gcc", 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Accesses != 200 {
		t.Fatalf("result: %+v", res)
	}
	if _, err := Simulate(PSORAM, DefaultConfig(), "nope", 10, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// A run with nothing to simulate is an error, not a table of NaNs.
	for _, n := range []int{0, -3} {
		if res, err := Simulate(PSORAM, DefaultConfig(), "403.gcc", n, 10); err == nil {
			t.Errorf("%d accesses: returned %+v, want an error", n, res)
		}
	}
	empty := filepath.Join(t.TempDir(), "empty.psot")
	if err := trace.Save(empty, nil); err != nil {
		t.Fatal(err)
	}
	if res, err := SimulateTrace(PSORAM, DefaultConfig(), empty, 10); err == nil {
		t.Errorf("empty trace: returned %+v, want an error", res)
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 14 {
		t.Fatalf("want 14 workloads, got %d", len(ws))
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	out, err := RunExperiment("table2", DefaultExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "eADR-ORAM") {
		t.Fatalf("table2 output:\n%s", out)
	}
	if _, err := RunExperiment("nope", DefaultExperimentOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Experiments()) < 8 {
		t.Fatal("experiment list too short")
	}
}

func TestVerifyCrashConsistencyFacade(t *testing.T) {
	res, err := VerifyCrashConsistency(PSORAM, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == 0 || res.Consistent != res.Fired {
		t.Fatalf("PS-ORAM sweep: %d fired, %d consistent", res.Fired, res.Consistent)
	}
	base, err := VerifyCrashConsistency(Baseline, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Failures) == 0 {
		t.Fatal("baseline sweep found no corruption")
	}
	// A sweep in which no crash point fires is an error, not a verdict.
	for _, accesses := range []int{0, -5} {
		if res, err := VerifyCrashConsistency(PSORAM, accesses, 3); err == nil {
			t.Errorf("%d accesses: vacuous sweep returned %+v, want an error", accesses, res)
		}
	}
}

func TestFullScaleTable3Geometry(t *testing.T) {
	// The paper's full L=23 geometry must be constructible and runnable
	// (a short burst; the figures use smaller trees for speed).
	if testing.Short() {
		t.Skip("full-scale geometry run skipped in -short mode")
	}
	res, err := Simulate(PSORAM, DefaultConfig(), "403.gcc", 100, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Z*(L+1) = 96 reads per access at L=23.
	if got := float64(res.Reads) / float64(res.Accesses); got < 95 || got > 100 {
		t.Fatalf("reads/access = %.1f, want ~96 at L=23", got)
	}
}

func TestRunEveryExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment dispatch skipped in -short mode")
	}
	o := DefaultExperimentOptions()
	o.Accesses = 200
	o.Levels = 10
	o.Workloads = o.Workloads[:2]
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := RunExperiment(name, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out) < 40 {
				t.Fatalf("%s: implausibly short output:\n%s", name, out)
			}
		})
	}
}

func TestStoreSaveLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 150
	s, err := New(100, WithScheme(PSORAM), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	copy(data, "persists across process restarts")
	if err := s.Write(12, data); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Read(12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("snapshot lost data: %q", got)
	}
}

// TestServeFacade exercises the top-level serving-pool exposure:
// concurrent reads and writes through psoram.NewPool, typed error
// surfaces, and per-shard stats.
func TestServeFacade(t *testing.T) {
	pool, err := NewPool(128, WithShards(4), WithPoolSeed(1), WithPoolLevels(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, pool.BlockBytes())
	copy(data, "served")
	if err := pool.Write(ctx, 9, data); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Read(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
	st := pool.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("stats cover %d shards", len(st.Shards))
	}
	if sub, _, done, _ := st.Totals(); sub != 2 || done != 2 {
		t.Fatalf("submitted=%d completed=%d, want 2/2", sub, done)
	}
	if err := pool.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Read(ctx, 9); err != ErrPoolClosed {
		t.Fatalf("post-close read: %v", err)
	}
}

// TestRecursiveStoreSizesItsWPQ: a recursive eviction batch spans the
// data path and a PosMap tree's path, 2(L+1)Z data WPQ entries, more
// than the default 96 at L=12. The store must size its WPQ for that
// batch itself rather than fail the first access that fills it.
func TestRecursiveStoreSizesItsWPQ(t *testing.T) {
	s, err := New(2048, WithScheme(RcrPSORAM), WithLevels(12))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, s.BlockSize())
	for i := 0; i < 2000; i++ {
		data[0] = byte(i)
		if err := s.Write(uint64(i)%2048, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}
