package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// adoptGeometry checks durable state of geometry g, read from where,
// against the request — its scheme must match, and so must the block
// count and tree height where opts names them — and takes the rest of
// the geometry from it: it is durable state, not the caller's to choose.
func adoptGeometry(scheme config.Scheme, cfg *config.Config, opts *Options, g oram.StoreGeometry, where string) error {
	if got := config.Scheme(g.Scheme); got != scheme {
		return fmt.Errorf("core: %s holds scheme %v, not %v", where, got, scheme)
	}
	if opts.NumBlocks != 0 && opts.NumBlocks != g.NumBlocks {
		return fmt.Errorf("core: %s holds %d blocks, not %d", where, g.NumBlocks, opts.NumBlocks)
	}
	if opts.Levels != 0 && opts.Levels != g.Levels {
		return fmt.Errorf("core: %s holds a %d-level tree, not %d", where, g.Levels, opts.Levels)
	}
	cfg.BlockBytes, cfg.Z = g.BlockBytes, g.Z
	opts.NumBlocks, opts.Levels = g.NumBlocks, g.Levels
	return nil
}

// storeGeometry is the durable shape of a scheme's tree.
func storeGeometry(scheme config.Scheme, cfg config.Config, levels int, numBlocks uint64) oram.StoreGeometry {
	return oram.StoreGeometry{
		Scheme:     uint64(scheme),
		Levels:     levels,
		Z:          cfg.Z,
		BlockBytes: cfg.BlockBytes,
		NumBlocks:  numBlocks,
	}
}

// createController creates a file store at opts.StoreDir and commits
// the fresh controller's initial image into it with one persist barrier.
func createController(scheme config.Scheme, cfg config.Config, opts Options) (*Controller, error) {
	st, err := filestore.Create(opts.StoreDir, storeGeometry(scheme, cfg, opts.Levels, opts.NumBlocks))
	if err != nil {
		return nil, err
	}
	c, err := newController(scheme, cfg, opts, st, false)
	if err != nil {
		return nil, err
	}
	c.syncDurablePosMap()
	if err := c.persistDurable(); err != nil {
		return nil, err
	}
	return c, nil
}

// recoverController runs the §4.3 recovery over a committed store: it
// wraps the stored image and restores the durable state it holds. The
// controller takes ownership of st.
func recoverController(scheme config.Scheme, cfg config.Config, opts Options, st *filestore.Store) (*Controller, error) {
	c, err := newController(scheme, cfg, opts, st, true)
	if err != nil {
		return nil, err
	}
	if err := c.restoreDurable(&st.Contents); err != nil {
		c.closeImages()
		return nil, err
	}
	c.counters.Inc("storage.opens")
	return c, nil
}

// restoreDurable is the reload half of §4.3 recovery, from a file store
// or a snapshot: the on-chip position map and its durable copy from the
// stored PosMap, each leaf checked against the tree, and the
// seal-version cursor.
func (c *Controller) restoreDurable(src *filestore.Contents) error {
	leaves := c.ORAM.Tree.Leaves()
	for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
		l := src.Leaf(a)
		if uint64(l) >= leaves {
			return fmt.Errorf("%w: stored leaf %d out of range for addr %d", filestore.ErrCorrupted, l, a)
		}
		c.durable.Put(a, l)
		c.ORAM.PosMap.Put(a, l)
	}
	c.ORAM.SetVerSeq(src.VerSeq())
	return nil
}
