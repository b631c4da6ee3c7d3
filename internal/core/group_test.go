package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
)

// diskImage reads every file under dir into a relpath -> contents map,
// so two stores can be compared byte for byte.
func diskImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		img[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func runGroupTraffic(t *testing.T, c *Controller, ops int, seed uint64) map[oram.Addr][]byte {
	t.Helper()
	return runGroupTrafficThen(t, c, ops, seed, nil)
}

// runGroupTrafficThen is runGroupTraffic calling after once each
// access has returned (nil calls nothing).
func runGroupTrafficThen(t *testing.T, c *Controller, ops int, seed uint64, after func()) map[oram.Addr][]byte {
	t.Helper()
	ref := make(map[oram.Addr][]byte)
	r := &lcg{s: seed}
	for i := 0; i < ops; i++ {
		addr := oram.Addr(r.n(100))
		op, v := oram.OpRead, []byte(nil)
		if r.n(3) != 0 {
			op, v = oram.OpWrite, blockVal(addr, i, 64)
			ref[addr] = v
		}
		if _, err := c.Access(op, addr, v); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
	return ref
}

// TestGroupCommitSize1ByteIdentical: the group barrier, flushed after
// every access, must commit what the per-access serial barrier commits,
// bit for bit — same seed, same op stream, byte-identical on-disk trees.
// The grouped leg's MaxOps is far beyond the stream, so every epoch it
// commits goes through FlushCommits and the group barrier, never
// through the serial commit. This is the acceptance gate that lets
// group size be a pure tuning knob.
func TestGroupCommitSize1ByteIdentical(t *testing.T) {
	dirs := [2]string{filepath.Join(t.TempDir(), "serial"), filepath.Join(t.TempDir(), "grouped")}
	opts := [2]Options{
		{NumBlocks: 100, Levels: 5, GroupCommit: GroupCommit{MaxOps: 1}},
		{NumBlocks: 100, Levels: 5, GroupCommit: GroupCommit{MaxOps: 1 << 20}},
	}
	for i := range dirs {
		opts[i].StoreDir = dirs[i]
		c, err := New(config.SchemePSORAM, testCfg(), opts[i])
		if err != nil {
			t.Fatal(err)
		}
		var flush func()
		if i == 1 {
			flush = func() {
				if err := c.FlushCommits(); err != nil {
					t.Fatal(err)
				}
				if err := c.Storage().Barrier(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runGroupTrafficThen(t, c, 150, 99, flush)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	serial, grouped := diskImage(t, dirs[0]), diskImage(t, dirs[1])
	if len(serial) != len(grouped) {
		t.Fatalf("file counts differ: serial %d, grouped %d", len(serial), len(grouped))
	}
	for rel, want := range serial {
		got, ok := grouped[rel]
		if !ok {
			t.Fatalf("grouped store missing %s", rel)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the serial and the group barrier's stores", rel)
		}
	}
}

// TestGroupCommitEquivalence: grouped barriers change when state hits
// disk, never what state. For several group sizes, run the same stream,
// close (which flushes the tail group), reopen, and require every
// address to read back its last written value — plus full operability
// after recovery.
func TestGroupCommitEquivalence(t *testing.T) {
	for _, g := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("group=%d", g), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			opts := Options{NumBlocks: 100, Levels: 5, GroupCommit: GroupCommit{MaxOps: g}, StoreDir: dir}
			c, err := New(config.SchemePSORAM, testCfg(), opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := runGroupTraffic(t, c, 150, uint64(1000+g))
			// A mid-stream manual flush must compose with the automatic
			// MaxOps flushes.
			if err := c.FlushCommits(); err != nil {
				t.Fatal(err)
			}
			ref2 := runGroupTraffic(t, c, 50, uint64(2000+g))
			for a, v := range ref2 {
				ref[a] = v
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := New(config.SchemePSORAM, testCfg(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.counters.Get("storage.opens") != 1 {
				t.Fatal("existing store reported as created")
			}
			defer loaded.Close()
			for a, want := range ref {
				got, err := loaded.Peek(a)
				if err != nil {
					t.Fatalf("addr %d unreadable after reopen: %v", a, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("addr %d = %.12q, want %.12q", a, got, want)
				}
			}
			if _, err := loaded.Access(oram.OpWrite, 7, blockVal(7, 9999, 64)); err != nil {
				t.Fatalf("recovered store not operational: %v", err)
			}
		})
	}
}

// TestGroupCommitTickets: the CommitTicket contract — OnCommit fires
// only once the covering barrier is durable; CommitPending tracks the
// open group; an access that itself triggers the MaxOps flush still
// gets a ticket covering it (the lastTicket rule).
func TestGroupCommitTickets(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opts := Options{NumBlocks: 100, Levels: 5, GroupCommit: GroupCommit{MaxOps: 3}, StoreDir: dir}
	c, err := New(config.SchemePSORAM, testCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var flushed []int
	c.SetCommitObserver(func(ops int, persistNanos int64) {
		flushed = append(flushed, ops)
		if persistNanos <= 0 {
			t.Errorf("flush of %d ops reported %dns persist time", ops, persistNanos)
		}
	})

	buf := make([]byte, c.Cfg.BlockBytes)
	acks := make(chan int, 16)
	for i := 0; i < 7; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(i), buf); err != nil {
			t.Fatal(err)
		}
		i := i
		c.OnCommit(func(err error) {
			if err != nil {
				t.Errorf("op %d commit error: %v", i, err)
			}
			acks <- i
		})
	}
	// Ops 0..5 filled two groups of 3; both flushed automatically. Op 6
	// sits in an open group.
	if !c.CommitPending() {
		t.Fatal("open group not reported pending")
	}
	seen := make(map[int]bool)
	waitAcks := func(want int) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for len(seen) < want {
			select {
			case i := <-acks:
				seen[i] = true
			case <-deadline:
				t.Fatalf("only %d/%d acks arrived", len(seen), want)
			}
		}
		for i := 0; i < want; i++ {
			if !seen[i] {
				t.Fatalf("ack for op %d missing", i)
			}
		}
	}
	waitAcks(6)
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	waitAcks(7)
	if c.CommitPending() {
		t.Fatal("pending after explicit flush")
	}
	// Let the async barrier's observer land before inspecting.
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	c.Storage().Barrier() // waits out the group barrier's worker
	if len(flushed) != 3 || flushed[0] != 3 || flushed[1] != 3 || flushed[2] != 1 {
		t.Fatalf("observer saw groups %v, want [3 3 1]", flushed)
	}
	// With everything durable, OnCommit must fire inline.
	fired := false
	c.OnCommit(func(err error) { fired = true })
	if !fired {
		t.Fatal("OnCommit on a durable boundary did not fire inline")
	}
}

// TestPersistFailureLatches: a failed persist barrier latches, under the
// serial commit (MaxOps 1) and under group commit (MaxOps 8) alike.
// Mid-run chunks/ becomes a regular file, so creating the next epoch's
// chunk files fails with ENOTDIR (a chmod would not stop a root
// process). The failing access (serial) or its group's ticket (grouped)
// carries the error. Once chunks/ is back, nothing commits again: the
// next access's commit (the access itself when serial; FlushCommits and
// the ticket when grouped), Persist and Close all return the latched
// error, neither version record changes, and Close still stops the
// persist worker.
func TestPersistFailureLatches(t *testing.T) {
	for _, g := range []int{1, 8} {
		t.Run(fmt.Sprintf("group=%d", g), func(t *testing.T) {
			before := runtime.NumGoroutine()
			dir := filepath.Join(t.TempDir(), "store")
			opts := Options{NumBlocks: 100, Levels: 5, GroupCommit: GroupCommit{MaxOps: g}, StoreDir: dir}
			c, err := New(config.SchemePSORAM, testCfg(), opts)
			if err != nil {
				t.Fatal(err)
			}
			st := c.Storage()
			runGroupTraffic(t, c, 20, 7)
			if err := c.FlushCommits(); err != nil {
				t.Fatal(err)
			}
			if err := st.Barrier(); err != nil {
				t.Fatal(err)
			}
			versionPath := filepath.Join(dir, "version")
			version, err := os.ReadFile(versionPath)
			if err != nil {
				t.Fatal(err)
			}
			chunks := filepath.Join(dir, "chunks")
			if err := os.Rename(chunks, chunks+".away"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(chunks, nil, 0o644); err != nil {
				t.Fatal(err)
			}

			// ticketErr waits for the most recent access's commit.
			ticketErr := func() error {
				t.Helper()
				done := make(chan error, 1)
				c.OnCommit(func(err error) { done <- err })
				select {
				case err := <-done:
					return err
				case <-time.After(5 * time.Second):
					t.Fatal("commit ticket never resolved")
					return nil
				}
			}
			// commit runs one access and returns the error its commit
			// reports: the access's own under the serial commit; under
			// group commit the access only joins the open group, so the
			// error comes from the FlushCommits that closes the group,
			// or else from its ticket.
			commit := func(addr oram.Addr) error {
				t.Helper()
				if _, err := c.Access(oram.OpWrite, addr, blockVal(addr, 1, 64)); err != nil || g == 1 {
					return err
				}
				if err := c.FlushCommits(); err != nil {
					if terr := ticketErr(); !errors.Is(terr, syscall.ENOTDIR) {
						t.Errorf("flush failed with %v, its ticket with %v", err, terr)
					}
					return err
				}
				return ticketErr()
			}
			if err := commit(3); !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("commit into a missing chunks/ = %v, want ENOTDIR", err)
			}

			if err := os.Remove(chunks); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(chunks+".away", chunks); err != nil {
				t.Fatal(err)
			}
			if err := commit(4); !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("next commit after chunks/ came back = %v, want the latched ENOTDIR", err)
			}
			if err := st.Persist(); !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("Persist = %v, want the latched ENOTDIR", err)
			}
			if err := c.Close(); !errors.Is(err, syscall.ENOTDIR) {
				t.Fatalf("Close = %v, want the latched ENOTDIR", err)
			}
			if got, err := os.ReadFile(versionPath); err != nil || !bytes.Equal(got, version) {
				t.Fatalf("version records changed after the failure (read err %v)", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: %d before, %d after Close", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
