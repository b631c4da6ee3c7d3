package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
)

// TestPoolGroupCommitDurable: a group-committing pool must serve the
// same values as the serial-barrier pool, hold every ack to durability
// (Close + reopen reads back everything acked), and populate the
// group-commit stats.
func TestPoolGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Shards:           2,
		NumBlocks:        64,
		Scheme:           config.SchemePSORAM,
		Seed:             9,
		StoreDir:         dir,
		GroupCommitOps:   4,
		GroupCommitDelay: time.Millisecond,
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bb := p.BlockBytes()
	want := make(map[uint64][]byte)
	for i := 0; i < 120; i++ {
		addr := uint64(i*11) % opts.NumBlocks
		v := bytes.Repeat([]byte{byte(i)}, bb)
		copy(v, fmt.Sprintf("g%03d-%03d", addr, i))
		if err := p.Write(ctx, addr, v); err != nil {
			t.Fatal(err)
		}
		want[addr] = v
		if got, err := p.Read(ctx, addr); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("read-after-write addr %d: %v %.12q", addr, err, got)
		}
	}
	st := p.Stats()
	var flushes, maxGroup uint64
	for _, sh := range st.Shards {
		flushes += sh.Flushes
		if sh.GroupMax > maxGroup {
			maxGroup = sh.GroupMax
		}
	}
	if flushes == 0 {
		t.Fatal("no group flushes recorded under GroupCommitOps=4")
	}
	if maxGroup > uint64(opts.GroupCommitOps) {
		t.Fatalf("a group covered %d ops, cap is %d", maxGroup, opts.GroupCommitOps)
	}
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}

	p2 := mustPool(t, opts)
	for addr, v := range want {
		got, err := p2.Read(ctx, addr)
		if err != nil {
			t.Fatalf("addr %d unreadable after restart: %v", addr, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("addr %d = %.12q, want %.12q", addr, got, v)
		}
	}
}

// TestPoolGroupCommitIdleFlush: a single request against an otherwise
// idle group-committing shard must still be acked promptly — the
// GroupCommitDelay timer flushes a group that will never fill. The generous
// bound only catches a missing timer (which hangs until pool close).
func TestPoolGroupCommitIdleFlush(t *testing.T) {
	opts := Options{
		Shards:           1,
		NumBlocks:        32,
		Scheme:           config.SchemePSORAM,
		Seed:             3,
		StoreDir:         t.TempDir(),
		GroupCommitOps:   64, // never fills from one request
		GroupCommitDelay: 5 * time.Millisecond,
	}
	p := mustPool(t, opts)
	buf := bytes.Repeat([]byte{7}, p.BlockBytes())
	start := time.Now()
	if err := p.Write(context.Background(), 5, buf); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("lone write acked after %v; the idle GroupCommitDelay flush is not running", wall)
	}
}

// TestPoolGroupCommitEquivalence: with the same seed, a group-commit
// pool and a serial pool must return identical values for the same
// request stream (group commit batches durability, never changes the
// protocol's answers).
func TestPoolGroupCommitEquivalence(t *testing.T) {
	mk := func(group int) *Pool {
		return mustPool(t, Options{
			Shards:         2,
			NumBlocks:      64,
			Scheme:         config.SchemePSORAM,
			Seed:           21,
			StoreDir:       t.TempDir(),
			GroupCommitOps: group,
		})
	}
	serial, grouped := mk(0), mk(8)
	ctx := context.Background()
	bb := serial.BlockBytes()
	for i := 0; i < 100; i++ {
		addr := uint64(i*13) % 64
		if i%3 == 0 {
			a, err1 := serial.Read(ctx, addr)
			b, err2 := grouped.Read(ctx, addr)
			if (err1 == nil) != (err2 == nil) || !bytes.Equal(a, b) {
				t.Fatalf("op %d read diverged: %v/%v %.12q/%.12q", i, err1, err2, a, b)
			}
			continue
		}
		v := bytes.Repeat([]byte{byte(i)}, bb)
		if err := serial.Write(ctx, addr, v); err != nil {
			t.Fatal(err)
		}
		if err := grouped.Write(ctx, addr, v); err != nil {
			t.Fatal(err)
		}
	}
}
