package psoram_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// The basic lifecycle: create a crash-consistent oblivious store, write,
// survive a power failure, read back.
func ExampleNew() {
	store, err := psoram.New(256,
		psoram.WithScheme(psoram.PSORAM),
		psoram.WithRNGSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, store.BlockSize())
	copy(data, "hello")
	if err := store.Write(42, data); err != nil {
		log.Fatal(err)
	}
	if err := store.CrashNow(); err != nil {
		log.Fatal(err)
	}
	if err := store.Recover(); err != nil {
		log.Fatal(err)
	}
	v, err := store.Read(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v[:5]))
	// Output: hello
}

// Injecting a power failure at a precise protocol point: here, step 4 of
// the PS-ORAM access (right after the backup block is created). The
// injector can also be armed at construction with WithCrashInjector.
func ExampleStore_CrashAt() {
	store, err := psoram.New(128, psoram.WithRNGSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	store.CrashAt(func(p psoram.CrashPoint) bool { return p.Step == 4 })
	err = store.Write(7, make([]byte, store.BlockSize()))
	fmt.Println(err == psoram.ErrCrashed)
	store.CrashAt(nil)
	fmt.Println(store.Recover() == nil)
	// Output:
	// true
	// true
}

// Sweeping injected crashes over a write workload and checking every
// recovery against the durability oracle.
func ExampleVerifyCrashConsistency() {
	res, err := psoram.VerifyCrashConsistency(psoram.PSORAM, 30, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Fired > 0 && res.Consistent == res.Fired)
	// Output: true
}

// Serving concurrent clients: the keyspace striped over a pool of
// independent stores, one goroutine per shard.
func ExampleNewPool() {
	pool, err := psoram.NewPool(256, psoram.WithShards(4), psoram.WithPoolSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defer pool.Close(ctx)
	data := make([]byte, pool.BlockBytes())
	copy(data, "hello")
	if err := pool.Write(ctx, 42, data); err != nil {
		log.Fatal(err)
	}
	v, err := pool.Read(ctx, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(v[:5]))
	// Output: hello
}

// Running the timing model for one scheme and workload.
func ExampleSimulate() {
	res, err := psoram.Simulate(psoram.PSORAM, psoram.DefaultConfig(), "403.gcc", 100, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Accesses, res.Cycles > 0)
	// Output: 100 true
}
