// Command psoram-serve is the serving-layer load generator: it stands up
// a sharded pool (internal/serve) and hammers it with concurrent
// clients, printing per-shard throughput, batching, crash/recovery, and
// latency statistics. With -check, every client diffs each returned
// value against a private reference map and the run finishes with a
// full keyspace sweep plus structural invariants — the differential
// oracle run through the serving path.
//
// Usage:
//
//	psoram-serve                                     # 4 shards x 4 clients, PS-ORAM
//	psoram-serve -shards 8 -clients 16 -ops 2000
//	psoram-serve -crash-every 500 -check             # torture: periodic power failures
//	psoram-serve -reshard 8 -check                   # live re-stripe mid-run, oracle on
//	psoram-serve -scheme Ring-PS-ORAM -write-ratio 0.9
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
)

func main() {
	var (
		shards     = flag.Int("shards", 4, "independent store shards (one goroutine each)")
		clients    = flag.Int("clients", 4, "concurrent client goroutines")
		ops        = flag.Int("ops", 1000, "operations per client")
		blocks     = flag.Uint64("blocks", 1024, "total logical blocks across the pool")
		levels     = flag.Int("levels", 0, "per-shard tree height (0 = derive from block count)")
		schemeName = flag.String("scheme", "PS-ORAM", "persistence scheme (see psoram-oracle -list)")
		seed       = flag.Uint64("seed", 1, "root seed (shards and clients derive independent streams)")
		writeRatio = flag.Float64("write-ratio", 0.5, "fraction of ops that are writes")
		queue      = flag.Int("queue", 64, "per-shard queue depth (full queue = ErrOverloaded)")
		batch      = flag.Int("batch", 8, "max requests coalesced into one protocol round")
		timeout    = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
		crashEvery = flag.Int("crash-every", 0, "fire a power failure every Nth crash point (0 = off)")
		check      = flag.Bool("check", false, "diff every value against a reference and sweep the keyspace at the end")
		storeDir   = flag.String("store", "", "back every shard with a durable on-disk store under DIR (create-or-recover; flat schemes only)")
		pipeline   = flag.Int("pipeline-depth", 0, "read-combining switch: 1 = off, the strict serial protocol; above 1 = duplicate reads in a round share one access (all such depths behave alike); 0 = default 4")
		groupOps   = flag.Int("group-commit", 0, "batch each durable shard's persist barrier across up to N accesses (0/1 = serial per-access barrier)")
		groupDelay = flag.Duration("group-delay", 0, "max time an idle shard holds an open commit group (0 = small default; needs -group-commit > 1)")
		reshardTo  = flag.Int("reshard", 0, "re-stripe the live pool to N shards once half the ops have completed (0 = off)")
	)
	flag.Parse()

	scheme, err := parseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	if *clients < 1 || *ops < 1 {
		fatal(fmt.Errorf("need at least 1 client and 1 op"))
	}
	pool, err := psoram.NewPool(*blocks,
		psoram.WithShards(*shards),
		psoram.WithPoolScheme(scheme),
		psoram.WithPoolLevels(*levels),
		psoram.WithPoolSeed(*seed),
		psoram.WithQueueDepth(*queue),
		psoram.WithMaxBatch(*batch),
		psoram.WithPoolStorePath(*storeDir),
		psoram.WithPoolPipelineDepth(*pipeline),
		psoram.WithPoolGroupCommit(*groupOps, *groupDelay),
	)
	if err != nil {
		fatal(err)
	}

	if *crashEvery > 0 {
		var points atomic.Uint64
		n := uint64(*crashEvery)
		for s := 0; s < pool.Shards(); s++ {
			if err := pool.ArmCrash(context.Background(), s, func(oracle.CrashSpec) bool {
				return points.Add(1)%n == 0
			}); err != nil {
				fatal(err)
			}
		}
	}

	// Each client owns a disjoint contiguous address range so -check has
	// a race-free reference; its ops still stripe across every shard.
	perClient := *blocks / uint64(*clients)
	if perClient == 0 {
		fatal(fmt.Errorf("%d blocks cannot feed %d clients", *blocks, *clients))
	}
	bb := pool.BlockBytes()
	var (
		wg          sync.WaitGroup
		completed   atomic.Uint64
		overloads   atomic.Uint64
		resharded   atomic.Uint64
		interrupted atomic.Uint64
		failures    atomic.Uint64
	)
	refs := make([]map[uint64][]byte, *clients)
	for c := range refs {
		refs[c] = make(map[uint64][]byte)
	}
	// Restarting over a durable store: the pool recovered the previous
	// run's committed values, so the reference must start from the
	// recovered state, not from zero — which also makes -check verify
	// the recovery itself.
	if *check && *storeDir != "" {
		zero := make([]byte, bb)
		for c := 0; c < *clients; c++ {
			base := uint64(c) * perClient
			for a := base; a < base+perClient; a++ {
				if v, err := pool.Peek(context.Background(), a); err == nil && !equal(v, zero) {
					refs[c][a] = append([]byte(nil), v...)
				}
			}
		}
	}
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) * perClient
			w := oracle.Workload{Name: fmt.Sprintf("client-%d", c), WriteRatio: *writeRatio}
			genOps := oracle.GenOps(w, perClient, bb, *ops, *seed+uint64(c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i, op := range genOps {
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				for {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if *timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, *timeout)
					}
					got, _, err := pool.Access(ctx, kind, addr, data)
					cancel()
					switch {
					case errors.Is(err, psoram.ErrOverloaded):
						overloads.Add(1)
						time.Sleep(100 * time.Microsecond) // back off, retry
						continue
					case errors.Is(err, psoram.ErrResharding):
						resharded.Add(1)
						time.Sleep(100 * time.Microsecond) // stripe migrating; retry
						continue
					case errors.Is(err, psoram.ErrInterrupted):
						interrupted.Add(1)
						continue // idempotent: re-issue the same op
					case errors.Is(err, context.DeadlineExceeded):
						continue // the round outlived the deadline; retry
					case err != nil:
						failures.Add(1)
						fmt.Fprintf(os.Stderr, "psoram-serve: client %d op %d: %v\n", c, i, err)
						return
					}
					if *check && !op.Write {
						want, ok := ref[addr]
						if !ok {
							want = zero
						}
						if !equal(got, want) {
							failures.Add(1)
							fmt.Fprintf(os.Stderr, "psoram-serve: client %d op %d addr %d: got %.16q want %.16q\n",
								c, i, addr, got, want)
							return
						}
					}
					break
				}
				if op.Write {
					ref[addr] = op.Data
				}
				completed.Add(1)
			}
		}(c)
	}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	reshardErr := make(chan error, 1)
	var reshardFired atomic.Bool
	if *reshardTo > 0 {
		// Fire the migration once half the total ops have been acked, so
		// the oracle grades values written before, during, and after it.
		half := uint64(*clients) * uint64(*ops) / 2
		go func() {
			for completed.Load() < half {
				select {
				case <-clientsDone:
					reshardErr <- nil // clients finished first; nothing to do
					return
				case <-time.After(time.Millisecond):
				}
			}
			reshardFired.Store(true)
			reshardErr <- pool.Reshard(context.Background(), *reshardTo)
		}()
	} else {
		reshardErr <- nil
	}
	<-clientsDone
	wall := time.Since(start)
	if err := <-reshardErr; err != nil {
		fatal(fmt.Errorf("reshard to %d: %w", *reshardTo, err))
	}
	if *reshardTo > 0 {
		if reshardFired.Load() {
			fmt.Printf("resharded mid-run to %d shards (epoch %d)\n", pool.Shards(), pool.Epoch())
		} else {
			fmt.Println("reshard trigger never fired: run finished before the halfway mark (raise -ops)")
		}
	}

	if *check {
		if *crashEvery > 0 {
			for s := 0; s < pool.Shards(); s++ {
				if err := pool.ArmCrash(context.Background(), s, nil); err != nil {
					fatal(err)
				}
			}
		}
		for _, err := range pool.Invariants(context.Background()) {
			failures.Add(1)
			fmt.Fprintf(os.Stderr, "psoram-serve: %v\n", err)
		}
		zero := make([]byte, bb)
		for c := 0; c < *clients; c++ {
			base := uint64(c) * perClient
			for a := base; a < base+perClient; a++ {
				got, err := pool.Peek(context.Background(), a)
				if err != nil {
					fatal(err)
				}
				want, ok := refs[c][a]
				if !ok {
					want = zero
				}
				if !equal(got, want) {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "psoram-serve: final sweep addr %d: got %.16q want %.16q\n", a, got, want)
				}
			}
		}
	}

	st := pool.Stats()
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Close(closeCtx); err != nil {
		fatal(err)
	}

	fmt.Println(st.Table())
	if stages := st.StageTable(); stages != nil {
		fmt.Println(stages)
	}
	if groups := st.GroupTable(); groups != nil {
		fmt.Println(groups)
	}
	done := completed.Load()
	fmt.Printf("\n%d clients x %d ops on %d shards (%s, %d blocks): %d ops in %v (%.0f ops/s wall)\n",
		*clients, *ops, *shards, scheme, *blocks, done, wall.Round(time.Millisecond),
		float64(done)/wall.Seconds())
	fmt.Printf("overload retries: %d, reshard retries: %d, crash interruptions: %d\n",
		overloads.Load(), resharded.Load(), interrupted.Load())
	if *check {
		if failures.Load() > 0 {
			fmt.Fprintf(os.Stderr, "psoram-serve: FAILED: %d violation(s)\n", failures.Load())
			os.Exit(1)
		}
		fmt.Println("check: all values matched the reference, invariants clean")
	} else if failures.Load() > 0 {
		os.Exit(1)
	}
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func parseScheme(name string) (config.Scheme, error) {
	for _, sc := range config.Schemes() {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (see psoram-oracle -list)", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "psoram-serve: %v\n", err)
	os.Exit(1)
}
