package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// adoptGeometry checks a recovered store against the request — its
// scheme must match, and so must the block count and tree height where
// opts names them — and takes the rest of the geometry from the store:
// it is durable state, not the caller's to choose.
func adoptGeometry(scheme config.Scheme, cfg *config.Config, opts *Options, st *filestore.Store) error {
	g, dir := st.Geometry(), opts.StoreDir
	if got := config.Scheme(g.Scheme); got != scheme {
		return fmt.Errorf("core: store at %s holds scheme %v, not %v", dir, got, scheme)
	}
	if opts.NumBlocks != 0 && opts.NumBlocks != g.NumBlocks {
		return fmt.Errorf("core: store at %s holds %d blocks, not %d", dir, g.NumBlocks, opts.NumBlocks)
	}
	if opts.Levels != 0 && opts.Levels != g.Levels {
		return fmt.Errorf("core: store at %s holds a %d-level tree, not %d", dir, g.Levels, opts.Levels)
	}
	cfg.BlockBytes, cfg.Z = g.BlockBytes, g.Z
	opts.NumBlocks, opts.Levels = g.NumBlocks, g.Levels
	return nil
}

// createController creates a file store at opts.StoreDir and commits
// the fresh controller's initial image into it with one persist barrier.
func createController(scheme config.Scheme, cfg config.Config, opts Options) (*Controller, error) {
	st, err := filestore.Create(opts.StoreDir, oram.StoreGeometry{
		Scheme:     uint64(scheme),
		Levels:     opts.Levels,
		Z:          cfg.Z,
		BlockBytes: cfg.BlockBytes,
		NumBlocks:  opts.NumBlocks,
	})
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
// wraps the stored image, reloads the on-chip map from the durable NVM
// copy and restores the seal-version cursor. The controller takes
// ownership of st.
func recoverController(scheme config.Scheme, cfg config.Config, opts Options, st *filestore.Store) (*Controller, error) {
	c, err := newController(scheme, cfg, opts, st, true)
	if err != nil {
		return nil, err
	}
	leaves := c.ORAM.Tree.Leaves()
	for a := oram.Addr(0); uint64(a) < opts.NumBlocks; a++ {
		l := st.Leaf(a)
		if uint64(l) >= leaves {
			return nil, fmt.Errorf("core: stored leaf %d out of range for addr %d", l, a)
		}
		c.durable.Put(a, l)
		c.ORAM.PosMap.Put(a, l)
	}
	c.ORAM.SetVerSeq(st.VerSeq())
	c.counters.Inc("storage.opens")
	return c, nil
}
