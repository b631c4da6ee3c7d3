package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// adoptGeometry checks durable state of geometry g, read from where,
// against the request — its scheme must match and be one the store
// covers, and so must the block count and tree height where opts names
// them — and takes the rest of the geometry from it: it is durable
// state, not the caller's to choose.
func adoptGeometry(scheme config.Scheme, cfg *config.Config, opts *Options, g oram.StoreGeometry, where string) error {
	if got := config.Scheme(g.Scheme); got != scheme {
		return fmt.Errorf("core: %s holds scheme %v, not %v", where, got, scheme)
	}
	if err := StorageSupported(scheme); err != nil {
		return err
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
	c, err := newController(scheme, cfg, opts, st, nil)
	if err != nil {
		return nil, err
	}
	for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
		c.setDurable(a, c.durable.Lookup(a))
	}
	if err := c.persistDurable(); err != nil {
		c.Close() // frees the image, stops the persist worker
		return nil, err
	}
	return c, nil
}

// recoverController is the §4.3 recovery, the one path by which a
// reopened file store and a loaded snapshot alike become a controller.
// src is what NVM holds: the geometry comes from it, the image attaches
// to its slots, and the on-chip position map, its durable copy and the
// seal-version cursor reload from it, each leaf checked against the
// tree; every volatile structure starts empty. st is the file store src
// belongs to, which the controller takes ownership of, or nil for a
// snapshot's contents.
func recoverController(scheme config.Scheme, cfg config.Config, opts Options, st *filestore.Store, src *filestore.Contents) (*Controller, error) {
	where, count := "the snapshot", "snapshot.loads"
	if st != nil {
		where, count = "store at "+st.Dir(), "storage.opens"
	}
	if err := adoptGeometry(scheme, &cfg, &opts, src.Geometry(), where); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newController(scheme, cfg, opts, st, src)
	if err != nil {
		return nil, err
	}
	leaves := c.ORAM.Tree.Leaves()
	for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
		l := src.Leaf(a)
		if uint64(l) >= leaves {
			c.closeImages()
			return nil, fmt.Errorf("%w: stored leaf %d out of range for addr %d", filestore.ErrCorrupted, l, a)
		}
		c.durable.Put(a, l)
		c.ORAM.PosMap.Put(a, l)
	}
	c.ORAM.SetVerSeq(src.VerSeq())
	c.counters.Inc(count)
	return c, nil
}
