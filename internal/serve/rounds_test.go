package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
)

// roundsPool is the one-shard pool the rounds tests share, with block a
// holding bytes of value a+1 for every a below addrs.
func roundsPool(t *testing.T, addrs uint64) *Pool {
	t.Helper()
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 6, Seed: 18,
		MaxBatch: 8,
	})
	for a := uint64(0); a < addrs; a++ {
		if err := p.Write(context.Background(), a, bytes.Repeat([]byte{byte(a + 1)}, p.BlockBytes())); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// closedLoop runs eight callers, caller c reading address addrOf(c) one
// call at a time and checking every value, until total reads have been
// claimed between them; it returns how many each caller completed.
func closedLoop(t *testing.T, p *Pool, total int64, addrOf func(c int) uint64) [8]int {
	t.Helper()
	var (
		done    [8]int
		claimed atomic.Int64
		wg      sync.WaitGroup
		start   = make(chan struct{})
	)
	for c := range done {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			addr := addrOf(c)
			want := bytes.Repeat([]byte{byte(addr + 1)}, p.BlockBytes())
			<-start
			for claimed.Add(1) <= total {
				v, err := p.Read(context.Background(), addr)
				if err != nil || !bytes.Equal(v, want) {
					t.Errorf("caller %d: read %d = %.4x, %v; want %.4x", c, addr, v, err, want)
					return
				}
				done[c]++
			}
		}(c)
	}
	close(start)
	wg.Wait()
	return done
}

// TestRoundsFormFromRunnableSubmitters pins the worker's yield-once rule
// by its counters. Without the yield a channel send readies the parked
// worker into the sender's runnext slot and the worker's reply readies
// that sender back: the pair ping-pongs in rounds of one while the other
// callers sit runnable behind it (at GOMAXPROCS(1): 4000 rounds of 1,
// nothing combined, and with distinct addresses one pair takes nearly
// every operation).
func TestRoundsFormFromRunnableSubmitters(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("one address/procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p := roundsPool(t, 1)
			before := p.Stats().Shards[0]
			done := closedLoop(t, p, 4000, func(int) uint64 { return 0 })
			st := p.Stats().Shards[0]
			rounds := st.Batches - before.Batches
			t.Logf("rounds %d (max %d), combined %d, per caller %v", rounds, st.BatchMax, st.Combined, done)
			if got := st.Completed - before.Completed; got != 4000 {
				t.Fatalf("completed %d, want 4000", got)
			}
			if procs == 1 {
				if rounds > 700 || st.BatchMax != 8 || st.Combined < 3000 {
					t.Errorf("rounds %d (want <= 700), max %d (want 8), combined %d (want >= 3000)", rounds, st.BatchMax, st.Combined)
				}
			} else if st.Combined < 2000 {
				t.Errorf("combined %d of 4000, want >= 2000", st.Combined)
			}
		})
	}

	// Nothing to combine here: what the yield buys is that every caller
	// gets its turn. (Under -race the instrumentation adds scheduling
	// points and the worker without the yield is fair as well.)
	t.Run("own addresses/procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		p := roundsPool(t, 8)
		done := closedLoop(t, p, 4000, func(c int) uint64 { return uint64(c) })
		t.Logf("per caller %v", done)
		for c, n := range done {
			if n < 250 {
				t.Errorf("caller %d completed %d of 4000, want >= 250: %v", c, n, done)
			}
		}
	})

	// An idle shard is never held back to fill a round.
	t.Run("one caller", func(t *testing.T) {
		p := roundsPool(t, 1)
		before := p.Stats().Shards[0]
		want := bytes.Repeat([]byte{1}, p.BlockBytes())
		for i := 0; i < 1000; i++ {
			if v, err := p.Read(context.Background(), 0); err != nil || !bytes.Equal(v, want) {
				t.Fatalf("read %d = %.4x, %v", i, v, err)
			}
		}
		st := p.Stats().Shards[0]
		if rounds, ops := st.Batches-before.Batches, st.Completed-before.Completed; rounds != ops || ops != 1000 || st.Combined != 0 {
			t.Errorf("rounds %d, completed %d, combined %d; want 1000, 1000, 0", rounds, ops, st.Combined)
		}
	})
}
