package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestTreeHoldsLiveBlocksOnly: a PS-ORAM tree in steady state holds
// little more than its live blocks. A backup whose block merges in the
// write-back batch that would write it is dead on arrival, so it is not
// written (psoram.backups_elided); were it written, about every other
// real slot of the tree would hold one until its leaf is next read.
func TestTreeHoldsLiveBlocksOnly(t *testing.T) {
	for _, g := range []struct {
		blocks uint64
		levels int
	}{{8192, 12}, {4096, 12}, {1024, 10}, {512, 8}} {
		t.Run(fmt.Sprintf("%dblocks/L%d", g.blocks, g.levels), func(t *testing.T) {
			c, err := New(config.SchemePSORAM, config.Default(), Options{NumBlocks: g.blocks, Levels: g.levels})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r := &lcg{s: 49}
			data := make([]byte, c.Cfg.BlockBytes)
			for i := 0; i < 20000; i++ {
				op := oram.OpRead
				if r.n(2) == 1 {
					op = oram.OpWrite
				}
				if _, err := c.Access(op, oram.Addr(r.n(int(g.blocks))), data); err != nil {
					t.Fatal(err)
				}
			}
			real := 0
			for b := uint64(0); b < c.ORAM.Tree.Buckets(); b++ {
				mask, ok := c.ORAM.Image.RealSlots(b)
				if !ok {
					t.Fatalf("bucket %d is not in record form", b)
				}
				real += bits.OnesCount32(mask)
			}
			ratio := float64(real) / float64(g.blocks)
			t.Logf("%d real slots for %d blocks (x%.3f); %d backups elided", real, g.blocks, ratio,
				c.Counters().Get("psoram.backups_elided"))
			if ratio > 1.05 {
				t.Errorf("the tree holds %d real slots, x%.3f its %d blocks; want at most x1.05", real, ratio, g.blocks)
			}
		})
	}
}
