package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestRetiredShardsFreeTheirImages: a completed Reshard frees the image
// region of every shard it retires and of the temporary controller each
// PS-ORAM extraction loads its snapshot into, and Pool.Close frees the
// region of every shard it closes. Other tests' dropped images may be
// freed meanwhile, which only lowers the count these checks bound.
func TestRetiredShardsFreeTheirImages(t *testing.T) {
	const from, to = 4, 6
	ctx := context.Background()
	before := oram.LiveRegions()
	p, err := New(Options{Shards: from, NumBlocks: 96, Scheme: config.SchemePSORAM, Levels: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if built := oram.LiveRegions() - before; built > from {
		t.Fatalf("a %d-shard pool holds %d regions", from, built)
	}
	for a := uint64(0); a < 96; a += 5 {
		if err := p.Write(ctx, a, bytes.Repeat([]byte{byte(a)}, p.BlockBytes())); err != nil {
			t.Fatal(err)
		}
	}
	mid := oram.LiveRegions()
	if err := p.Reshard(ctx, to); err != nil {
		t.Fatal(err)
	}
	if grew := oram.LiveRegions() - mid; grew > to-from {
		t.Fatalf("resharding %d -> %d shards left %d more regions, want at most %d", from, to, grew, to-from)
	}
	open := oram.LiveRegions()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if freed := open - oram.LiveRegions(); freed < to {
		t.Fatalf("Pool.Close freed %d regions of %d shards", freed, to)
	}
}
