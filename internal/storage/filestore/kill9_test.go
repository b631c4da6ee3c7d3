package filestore_test

// The kill -9 torture suite: the one test in the repo where "crash" is
// not simulated. A real child process (this test binary re-executing
// itself, the standard helper-process pattern) runs a file-backed
// controller over a deterministic op sequence, reporting each completed
// access through an append-only progress file; the parent SIGKILLs it
// at a randomized point — no defers, no atexit, no flushing — then
// reopens the store in-process and holds the recovered state to the
// crash-linearizability contract:
//
//   - persistent schemes (PS-ORAM, Naive-PS-ORAM): with `done` accesses
//     reported complete, the recovered store must equal the reference
//     replay of exactly done or done+1 ops (the in-flight access either
//     committed its persist barrier entirely or not at all);
//   - baselines (Baseline, FullNVM, FullNVM(STT), eADR-ORAM): their
//     volatile structures genuinely die with the process, so they are
//     held to the weak per-address check — any readable value must be
//     some version the address historically held, never fabricated or
//     torn bytes.
//
// What SIGKILL exercises — and what it cannot: killing a process does
// not drop the page cache, so fsync *durability* is out of scope here
// (that needs a power cut or device-mapper fault injection). What it
// does exercise, for real, is the syscall-level write ordering: the
// version flip must reach the kernel strictly after every chunk write
// it promises, at every possible kill instant. Torn-media artifacts are
// covered separately by the corruption table and recovery fuzzer.
//
// TestKill9Mutation proves the harness can actually see a broken
// protocol: with the version flip sabotaged the same trials MUST report
// violations.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/rng"
)

const (
	k9Blocks = 48 // ~19% of a 5-level Z=4 tree: initial placement never spills to stash
	k9Levels = 5
	k9NumOps = 60
	k9BB     = 64

	k9EnvDir      = "PSORAM_KILL9_DIR"
	k9EnvScheme   = "PSORAM_KILL9_SCHEME"
	k9EnvSeed     = "PSORAM_KILL9_SEED"
	k9EnvProgress = "PSORAM_KILL9_PROGRESS"
	k9EnvNoFlip   = "PSORAM_KILL9_NOFLIP"
	k9EnvGroup    = "PSORAM_KILL9_GROUP"
)

func k9Cfg(seed uint64) config.Config {
	cfg := config.Default()
	cfg.Seed = seed
	return cfg
}

// k9GenOps derives the trial's op sequence. Parent and child call this
// with the same seed, so the parent can replay the reference history
// without any channel to the dead child beyond the progress file.
func k9GenOps(seed uint64) []oracle.Op {
	w := oracle.Workload{Name: "kill9", WriteRatio: 0.7}
	return oracle.GenOps(w, k9Blocks, k9BB, k9NumOps, seed)
}

// TestKill9Child is the victim process, driven by runKill9Trial via
// re-execution; it skips under a normal `go test` run.
func TestKill9Child(t *testing.T) {
	dir := os.Getenv(k9EnvDir)
	if dir == "" {
		t.Skip("helper process: driven by TestKill9Recovery")
	}
	var schemeN int
	var seed uint64
	if _, err := fmt.Sscan(os.Getenv(k9EnvScheme), &schemeN); err != nil {
		t.Fatalf("bad %s: %v", k9EnvScheme, err)
	}
	scheme := config.Scheme(schemeN)
	if _, err := fmt.Sscan(os.Getenv(k9EnvSeed), &seed); err != nil {
		t.Fatalf("bad %s: %v", k9EnvSeed, err)
	}
	pf, err := os.OpenFile(os.Getenv(k9EnvProgress), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	group := 0
	if g := os.Getenv(k9EnvGroup); g != "" {
		if _, err := fmt.Sscan(g, &group); err != nil {
			t.Fatalf("bad %s: %v", k9EnvGroup, err)
		}
	}
	opts := core.Options{NumBlocks: k9Blocks, Levels: k9Levels,
		GroupCommit: core.GroupCommit{MaxOps: group}, StoreDir: dir}
	ctl, err := core.New(scheme, k9Cfg(seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Counters().Get("storage.opens") != 0 {
		t.Fatal("child expects a fresh store directory")
	}
	// The strict check needs every block durably placed at creation;
	// blocks the initial placement leaves in the (volatile) stash would
	// be lost through no fault of the storage layer.
	if n := ctl.ORAM.Stash.Len(); n != 0 {
		t.Fatalf("initial placement left %d blocks in the volatile stash; lower the utilization", n)
	}
	if os.Getenv(k9EnvNoFlip) == "1" {
		ctl.Storage().TestingDisableVersionFlip()
	}
	for i, op := range k9GenOps(seed) {
		kind, data := oram.OpRead, []byte(nil)
		if op.Write {
			kind, data = oram.OpWrite, op.Data
		}
		if _, err := ctl.Access(kind, oram.Addr(op.Addr), data); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		// One line per completed (and persisted) access. O_APPEND and the
		// trailing newline make the count crash-safe: a torn line has no
		// newline and is not counted. Under group commit the line is the
		// ack — it goes down only from the commit callback, after the
		// covering barrier, exactly like a serve-layer reply.
		if group > 1 {
			i := i
			ctl.OnCommit(func(cerr error) {
				if cerr != nil {
					return // unacked: the torture must not count it
				}
				pfMu.Lock()
				fmt.Fprintf(pf, "%d\n", i)
				pfMu.Unlock()
			})
			continue
		}
		if _, err := fmt.Fprintf(pf, "%d\n", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}

// pfMu orders the child's progress lines: commit callbacks run on the
// backend's persist worker, the serial path on the test goroutine.
var pfMu sync.Mutex

type k9Trial struct {
	scheme    config.Scheme
	seed      uint64
	killAfter int // SIGKILL once this many accesses have been reported
	noFlip    bool
	group     int // group-commit size (0/1 = serial per-access barrier)
}

// runKill9Trial spawns the child, kills it, recovers, and returns the
// violations found (nil = the crash contract held).
func runKill9Trial(t *testing.T, tr k9Trial) []string {
	t.Helper()
	base := t.TempDir()
	storeDir := filepath.Join(base, "store")
	progress := filepath.Join(base, "progress")

	cmd := exec.Command(os.Args[0], "-test.run=^TestKill9Child$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		k9EnvDir+"="+storeDir,
		fmt.Sprintf("%s=%d", k9EnvScheme, int(tr.scheme)),
		fmt.Sprintf("%s=%d", k9EnvSeed, tr.seed),
		k9EnvProgress+"="+progress,
	)
	if tr.noFlip {
		cmd.Env = append(cmd.Env, k9EnvNoFlip+"=1")
	}
	if tr.group > 1 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", k9EnvGroup, tr.group))
	}
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Kill once the child reports killAfter completed accesses, plus a
	// small deterministic jitter so the SIGKILL lands at varied points
	// inside (or between) accesses — mid-chunk-write, mid-fsync,
	// mid-flip, mid-GC.
	rnd := rand.New(rand.NewSource(int64(tr.seed)))
	jitter := time.Duration(rnd.Intn(1500)) * time.Microsecond
	deadline := time.After(90 * time.Second)
	childDone := false
poll:
	for {
		select {
		case err := <-exited:
			// Finished every op (or failed) before the threshold.
			if err != nil {
				t.Fatalf("child failed before the kill threshold: %v\n%s", err, childOut.String())
			}
			childDone = true
			break poll
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("child never reached %d accesses\n%s", tr.killAfter, childOut.String())
		default:
			if countLines(progress) >= tr.killAfter {
				break poll
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if !childDone {
		time.Sleep(jitter)
		cmd.Process.Kill() // SIGKILL: no handlers, no flushing, no mercy
		<-exited
	}

	done := countLines(progress)
	if childDone {
		t.Logf("child finished all %d ops before the kill threshold %d", done, tr.killAfter)
	} else {
		t.Logf("SIGKILL landed after %d completed accesses (threshold %d, jitter %v)", done, tr.killAfter, jitter)
	}
	ops := k9GenOps(tr.seed)
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf("scheme %v seed %d killAfter %d done %d: %s",
			tr.scheme, tr.seed, tr.killAfter, done, fmt.Sprintf(format, args...)))
	}

	// One open of the raw post-SIGKILL directory: the controller checked
	// below is the one that recovered it, garbage chunks and all.
	ctl, err := core.New(tr.scheme, k9Cfg(tr.seed),
		core.Options{NumBlocks: k9Blocks, Levels: k9Levels, StoreDir: storeDir})
	if err != nil {
		fail("recovery failed: %v", err)
		return violations
	}
	defer ctl.Close()
	if ctl.Counters().Get("storage.opens") == 0 {
		if done > 0 {
			fail("store reports never-committed after %d completed accesses", done)
		}
		return violations // killed before creation committed: nothing was promised
	}

	recovered := make([][]byte, k9Blocks)
	for a := 0; a < k9Blocks; a++ {
		if v, err := ctl.Peek(oram.Addr(a)); err == nil {
			recovered[a] = append([]byte(nil), v...)
		}
	}

	switch tr.scheme {
	case config.SchemePSORAM, config.SchemeNaivePSORAM:
		if tr.group > 1 {
			// Acked prefix over groups: every acked access (a progress
			// line goes down only from its commit callback) is durable,
			// so the recovered state must be at least the done-op prefix.
			// Above it there is bounded unacked tail: the group whose
			// barrier completed but whose callbacks had not all written
			// (≤ group-1 lines short), plus one whole in-flight group
			// whose flip may have just landed — never a torn state.
			states := oracle.PrefixStates(ops, k9BB)
			hi := done + 2*tr.group
			matched := oracle.MatchedPrefixes(recovered, states, hi, k9BB)
			ok := false
			for _, p := range matched {
				if p >= done && p <= hi {
					ok = true
				}
			}
			if !ok {
				fail("recovered store matches prefixes %v, want one in [%d, %d]", matched, done, hi)
			}
			break
		}
		states := oracle.PrefixStates(ops, k9BB)
		matched := oracle.MatchedPrefixes(recovered, states, done+1, k9BB)
		if !containsInt(matched, done) && !containsInt(matched, done+1) {
			lost := 0
			for _, v := range recovered {
				if v == nil {
					lost++
				}
			}
			fail("recovered store matches prefixes %v, want %d or %d (%d/%d blocks unreadable)",
				matched, done, done+1, lost, k9Blocks)
		}
	default:
		hist := ops[:min(done+1, len(ops))]
		for a := 0; a < k9Blocks; a++ {
			if recovered[a] == nil {
				continue // lost with the process — permitted for baselines
			}
			if !oracle.KnownVersion(hist, uint64(a), recovered[a], k9BB) {
				fail("addr %d recovered %.16q: never a written version", a, recovered[a])
			}
		}
	}
	return violations
}

func countLines(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(raw, []byte{'\n'})
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestKill9Recovery is the headline: real SIGKILLs at randomized points
// across every scheme the durable backend covers. Full mode fires 58
// kill points; -short keeps a representative 8.
func TestKill9Recovery(t *testing.T) {
	plan := []struct {
		scheme config.Scheme
		trials int
	}{
		{config.SchemePSORAM, 16},
		{config.SchemeNaivePSORAM, 10},
		{config.SchemeFullNVM, 8},
		{config.SchemeFullNVMSTT, 8},
		{config.SchemeBaseline, 8},
		{config.SchemeEADRORAM, 8},
	}
	for _, pl := range plan {
		pl := pl
		trials := pl.trials
		if testing.Short() {
			trials = 1
			if pl.scheme == config.SchemePSORAM || pl.scheme == config.SchemeNaivePSORAM {
				trials = 2
			}
		}
		t.Run(pl.scheme.String(), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < trials; i++ {
				i := i
				t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
					t.Parallel()
					seed := rng.DeriveSeed(0x517, uint64(pl.scheme), uint64(i))
					rnd := rand.New(rand.NewSource(int64(seed)))
					tr := k9Trial{
						scheme:    pl.scheme,
						seed:      seed,
						killAfter: 1 + rnd.Intn(k9NumOps-10),
					}
					for _, v := range runKill9Trial(t, tr) {
						t.Error(v)
					}
				})
			}
		})
	}
}

// TestKill9GroupRecovery re-runs the torture with group commit on: the
// child acks (writes a progress line for) an access only from its
// commit callback, so the acked-prefix contract is tested verbatim over
// groups — after SIGKILL, recovery must land on a state covering every
// acked access, at most a bounded unacked tail beyond, never torn.
func TestKill9GroupRecovery(t *testing.T) {
	groups := []int{4, 8}
	trialsPer := 6
	if testing.Short() {
		trialsPer = 2
	}
	for _, g := range groups {
		g := g
		t.Run(fmt.Sprintf("group=%d", g), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < trialsPer; i++ {
				i := i
				t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
					t.Parallel()
					seed := rng.DeriveSeed(0x6709, uint64(g), uint64(i))
					rnd := rand.New(rand.NewSource(int64(seed)))
					tr := k9Trial{
						scheme:    config.SchemePSORAM,
						seed:      seed,
						killAfter: 1 + rnd.Intn(k9NumOps-10),
						group:     g,
					}
					for _, v := range runKill9Trial(t, tr) {
						t.Error(v)
					}
				})
			}
		})
	}
}

// TestKill9GroupMutation: with the version flip sabotaged, the disk
// freezes at the creation commit while the child keeps acking groups —
// the group harness must call that out, or it cannot be trusted.
func TestKill9GroupMutation(t *testing.T) {
	trials := 2
	if testing.Short() {
		trials = 1
	}
	found := 0
	for i := 0; i < trials; i++ {
		seed := rng.DeriveSeed(0xbeef, uint64(i))
		tr := k9Trial{
			scheme:    config.SchemePSORAM,
			seed:      seed,
			killAfter: 20 + 5*i,
			noFlip:    true,
			group:     4,
		}
		found += len(runKill9Trial(t, tr))
	}
	if found == 0 {
		t.Fatal("version flip disabled yet no violations reported: the group kill -9 harness is blind")
	}
}

// TestKill9Mutation sabotages the persist barrier (the version record
// is never flipped, so the disk freezes at the initial commit) and
// requires the SAME harness to object: a torture suite that passes a
// broken recovery protocol is worse than no suite.
func TestKill9Mutation(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	found := 0
	for i := 0; i < trials; i++ {
		seed := rng.DeriveSeed(0xdead, uint64(i))
		tr := k9Trial{
			scheme:    config.SchemePSORAM,
			seed:      seed,
			killAfter: 10 + 5*i,
			noFlip:    true,
		}
		found += len(runKill9Trial(t, tr))
	}
	if found == 0 {
		t.Fatal("version flip disabled yet no violations reported: the kill -9 harness is blind")
	}
}
