package core

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestCloseFreesEveryImage: Close frees the region of the data tree's
// image and of every PosMap tree's, for a flat and a recursive controller
// in memory and for a durable one. A second Close is a no-op, and every
// operation after Close returns an error instead of touching unmapped
// memory.
func TestCloseFreesEveryImage(t *testing.T) {
	durable := func(t *testing.T) *Controller {
		c, err := New(config.SchemePSORAM, testCfg(), Options{NumBlocks: 100, Levels: 5, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		ctl  func(*testing.T) *Controller
	}{
		{"PS-ORAM", func(t *testing.T) *Controller { return newCtl(t, config.SchemePSORAM) }},
		{"Rcr-PS-ORAM", func(t *testing.T) *Controller { return newCtl(t, config.SchemeRcrPSORAM) }},
		{"durable PS-ORAM", durable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.ctl(t)
			images := int64(1)
			if c.Rec != nil {
				images += int64(len(c.Rec.Levels))
				if images < 2 {
					t.Fatal("the recursive controller has no PosMap tree")
				}
			}
			for a := oram.Addr(0); a < 20; a++ {
				if _, err := c.Access(oram.OpWrite, a, blockVal(a, 1, c.Cfg.BlockBytes)); err != nil {
					t.Fatal(err)
				}
			}
			// Other tests' dropped images may be freed meanwhile, which
			// only adds to what Close appears to free.
			before := oram.LiveRegions()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if freed := before - oram.LiveRegions(); freed < images {
				t.Fatalf("Close freed %d regions of the controller's %d", freed, images)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := c.Access(oram.OpRead, 0, nil); !errors.Is(err, errClosed) {
				t.Fatalf("Access after Close returned %v, want %v", err, errClosed)
			}
			if _, err := c.Peek(0); !errors.Is(err, errClosed) {
				t.Fatalf("Peek after Close returned %v, want %v", err, errClosed)
			}
			if err := c.Recover(); !errors.Is(err, errClosed) {
				t.Fatalf("Recover after Close returned %v, want %v", err, errClosed)
			}
		})
	}
}

// TestFailedConstructionFreesImages: an Rcr-PS-ORAM whose on-chip PosMap
// budget holds no entry passes Validate and is refused by
// NewRecursiveMap, after the data tree's image is mapped. The refusal
// must leave no image mapped.
func TestFailedConstructionFreesImages(t *testing.T) {
	cfg := testCfg()
	cfg.OnChipPosMapBytes = 100
	before := oram.LiveRegions()
	if c, err := New(config.SchemeRcrPSORAM, cfg, Options{NumBlocks: 100, Levels: 5}); err == nil {
		c.Close()
		t.Fatal("an on-chip budget of no entry was accepted")
	}
	// Other tests' dropped images may be freed meanwhile, which only
	// lowers the count.
	if grew := oram.LiveRegions() - before; grew > 0 {
		t.Fatalf("the failed construction left %d images mapped", grew)
	}
}
