package psoram

// Back-compat contract for the deprecated constructors: NewStore and
// Serve must stay thin wrappers over New and NewPool — identical
// behaviour, no drift. These are the ONLY test callers allowed to touch
// deprecated symbols; everything else migrates (cmd/psoram-depgate
// enforces this, and exempts *deprecated_test.go by name).

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

func TestDeprecatedNewStoreWrapper(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StashEntries = 150
	old, err := NewStore(StoreOptions{Scheme: PSORAM, NumBlocks: 64, Config: &cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	neu, err := New(64, WithScheme(PSORAM), WithConfig(cfg), WithRNGSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, old.BlockSize())
	copy(data, "same construction")
	if err := old.Write(5, data); err != nil {
		t.Fatal(err)
	}
	if err := neu.Write(5, data); err != nil {
		t.Fatal(err)
	}
	a, err := old.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := neu.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !reflect.DeepEqual(old.Counters(), neu.Counters()) {
		t.Fatalf("NewStore and New diverged: %q/%v vs %q/%v", a, old.Counters(), b, neu.Counters())
	}

	// Defaults flow through the wrapper unchanged.
	s, err := NewStore(StoreOptions{NumBlocks: 50})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme() != PSORAM {
		t.Fatalf("wrapper default scheme = %v, want PSORAM", s.Scheme())
	}
	if _, err := NewStore(StoreOptions{}); err == nil {
		t.Fatal("NumBlocks unset should error through the wrapper")
	}
}

func TestDeprecatedServeWrapper(t *testing.T) {
	ctx := context.Background()
	old, err := Serve(PoolOptions{Shards: 2, NumBlocks: 64, Seed: 3, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close(ctx)
	neu, err := NewPool(64, WithShards(2), WithPoolSeed(3), WithPoolLevels(5))
	if err != nil {
		t.Fatal(err)
	}
	defer neu.Close(ctx)
	data := make([]byte, old.BlockBytes())
	copy(data, "wrapped")
	for _, p := range []*Pool{old, neu} {
		if err := p.Write(ctx, 9, data); err != nil {
			t.Fatal(err)
		}
	}
	a, err := old.Read(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := neu.Read(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || old.Shards() != neu.Shards() {
		t.Fatal("Serve and NewPool built different pools")
	}
}
