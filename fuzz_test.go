package psoram

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzStoreOps drives the PS-ORAM store with arbitrary operation
// sequences (reads, writes, crashes, recoveries) decoded from the fuzz
// input and checks it against a reference map of acknowledged writes:
// a crash between accesses loses none of them, so after every recovery
// the store must equal that map exactly. The protocol must never
// corrupt, whatever the interleaving.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 200, 10, 200, 255, 0, 0, 255})
	f.Add(bytes.Repeat([]byte{7, 77, 177}, 20))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		cfg := DefaultConfig()
		cfg.StashEntries = 150
		cfg.TempPosMapSize = 16
		cfg.WriteBufferEntries = 16
		s, err := New(64, WithScheme(PSORAM), WithConfig(cfg), WithRNGSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		acked := make(map[uint64][]byte) // latest acknowledged values
		for a := uint64(0); a < 64; a++ {
			acked[a] = make([]byte, 64)
		}
		recoverAndCheck := func(when string) {
			if err := s.Recover(); err != nil {
				t.Fatalf("%s: recover: %v", when, err)
			}
			for a := uint64(0); a < 64; a++ {
				got, err := s.Read(a)
				if err != nil {
					t.Fatalf("%s: read %d after recovery: %v", when, a, err)
				}
				if !bytes.Equal(got, acked[a]) {
					t.Fatalf("%s: addr %d = %.12q after recovery, acknowledged %.12q", when, a, got, acked[a])
				}
			}
		}
		crashed := false
		version := 0
		for i, op := range ops {
			addr := uint64(op) % 64
			switch {
			case crashed:
				recoverAndCheck(fmt.Sprintf("op %d", i))
				crashed = false
			case op%7 == 6:
				if err := s.CrashNow(); err != nil {
					t.Fatalf("op %d: crash: %v", i, err)
				}
				crashed = true
			case op%2 == 0:
				version++
				data := make([]byte, 64)
				copy(data, fmt.Sprintf("a%d.v%d", addr, version))
				if err := s.Write(addr, data); err != nil {
					t.Fatalf("op %d: write: %v", i, err)
				}
				acked[addr] = data
			default:
				got, err := s.Read(addr)
				if err != nil {
					t.Fatalf("op %d: read: %v", i, err)
				}
				if !bytes.Equal(got, acked[addr]) {
					t.Fatalf("op %d: addr %d = %.12q want %.12q", i, addr, got, acked[addr])
				}
			}
		}
		if crashed {
			recoverAndCheck("final")
		}
	})
}
