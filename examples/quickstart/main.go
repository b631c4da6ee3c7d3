// Quickstart: build a crash-consistent oblivious block store, write and
// read blocks, survive a power failure.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A PS-ORAM store with 1024 logical blocks (64B each, the paper's
	// cache-line-sized blocks).
	store, err := psoram.New(1024,
		psoram.WithScheme(psoram.PSORAM),
		psoram.WithRNGSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: %d blocks x %dB, scheme %v\n",
		store.NumBlocks(), store.BlockSize(), store.Scheme())

	// Write a few blocks. Every Write is a full oblivious access: a
	// random path read, re-encryption, and an atomic WPQ write-back.
	for i := 0; i < 8; i++ {
		data := make([]byte, store.BlockSize())
		copy(data, fmt.Sprintf("secret record #%d", i))
		if err := store.Write(uint64(i*100), data); err != nil {
			log.Fatal(err)
		}
	}
	c := store.Counters()
	fmt.Printf("wrote 8 blocks in %d ORAM accesses (%d NVM block reads, %d writes)\n",
		store.Accesses(), c["nvm.reads"], c["nvm.writes"])

	// Power failure. The volatile stash, temporary PosMap and write
	// buffer are gone; the WPQs drained.
	if err := store.CrashNow(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulated power failure")

	// Recovery reloads the on-chip position map from its durable copy.
	if err := store.Recover(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered")

	// Every write survived: PS-ORAM's backup blocks and atomic
	// data+metadata write-backs guarantee it.
	for i := 0; i < 8; i++ {
		got, err := store.Read(uint64(i * 100))
		if err != nil {
			log.Fatalf("block %d lost: %v", i*100, err)
		}
		fmt.Printf("block %4d: %q\n", i*100, trim(got))
	}
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
