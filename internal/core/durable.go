package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// Open reconstructs a controller from NOTHING BUT a durable backend's
// recovered state — the information available after a power cycle or a
// kill -9 — running the §4.3 recovery: geometry and scheme come from
// the backend, the on-chip position map is reloaded from the durable
// copy, the seal-version cursor is restored, and every volatile
// structure (stash, temporary PosMap) starts empty. With cfg.Integrity
// set, the image is re-hashed and verified against the stored trusted
// root. The controller takes ownership of st.
func Open(cfg config.Config, st *filestore.Store) (*Controller, error) {
	return openWith(cfg, st, Options{})
}

// openWith is Open plus runtime tuning knobs: geometry always comes
// from the backend, but execution-only options (group commit) are the
// caller's — they are not durable state.
func openWith(cfg config.Config, st *filestore.Store, runtime Options) (*Controller, error) {
	g := st.Geometry()
	scheme := config.Scheme(g.Scheme)
	if err := StorageSupported(scheme); err != nil {
		return nil, err
	}
	cfg.BlockBytes = g.BlockBytes
	cfg.Z = g.Z
	opts := runtime
	opts.NumBlocks, opts.Levels = g.NumBlocks, g.Levels
	c, err := newController(scheme, cfg, opts, st, true)
	if err != nil {
		return nil, err
	}
	// §4.3: reload the on-chip map from the durable NVM copy.
	leaves := c.ORAM.Tree.Leaves()
	for a := oram.Addr(0); uint64(a) < g.NumBlocks; a++ {
		l := st.Leaf(a)
		if uint64(l) >= leaves {
			return nil, fmt.Errorf("core: stored leaf %d out of range for addr %d", l, a)
		}
		c.durable.Put(a, l)
		c.ORAM.PosMap.Put(a, l)
	}
	c.ORAM.SetVerSeq(st.VerSeq())
	if c.Merkle != nil {
		// The Merkle tree was rebuilt over the recovered image during
		// construction; a mismatch against the trusted root from the
		// persistence domain means the image was tampered with.
		root := st.Root()
		if len(root) == 0 {
			return nil, fmt.Errorf("core: cfg.Integrity set but the store carries no trusted root")
		}
		if !bytes.Equal(c.Merkle.Root(), root) {
			return nil, fmt.Errorf("core: storage integrity check failed: image does not match the trusted root")
		}
	}
	c.counters.Inc("storage.opens")
	return c, nil
}

// NewDurable is the create-or-open policy for a file-backed controller:
// when dir holds a committed store it is recovered with Open (and the
// requested scheme/size must match what is stored); when it holds
// nothing durable a fresh store is created and its initial state
// committed. The bool result reports whether the store was freshly
// created (false = an existing store was recovered). A fresh store's
// initial image is sealed into it and committed with one persist barrier.
func NewDurable(scheme config.Scheme, cfg config.Config, opts Options, dir string) (*Controller, bool, error) {
	if err := StorageSupported(scheme); err != nil {
		return nil, false, err
	}
	st, err := filestore.Open(dir)
	switch {
	case err == nil:
		g := st.Geometry()
		if got := config.Scheme(g.Scheme); got != scheme {
			return nil, false, fmt.Errorf("core: store at %s holds scheme %v, not %v", dir, got, scheme)
		}
		if opts.NumBlocks != 0 && opts.NumBlocks != g.NumBlocks {
			return nil, false, fmt.Errorf("core: store at %s holds %d blocks, not %d", dir, g.NumBlocks, opts.NumBlocks)
		}
		if opts.Levels != 0 && opts.Levels != g.Levels {
			return nil, false, fmt.Errorf("core: store at %s holds a %d-level tree, not %d", dir, g.Levels, opts.Levels)
		}
		c, err := openWith(cfg, st, opts)
		if err != nil {
			return nil, false, err
		}
		return c, false, nil
	case errors.Is(err, filestore.ErrNoStore):
		if err := cfg.Validate(); err != nil {
			return nil, false, err
		}
		if opts.NumBlocks == 0 {
			return nil, false, fmt.Errorf("core: Options.NumBlocks is required to create a store")
		}
		levels := opts.Levels
		if levels == 0 {
			levels = cfg.TreeLevelsFor(opts.NumBlocks)
			if levels < 2 {
				levels = 2
			}
		}
		st, err := filestore.Create(dir, oram.StoreGeometry{
			Scheme:     uint64(scheme),
			Levels:     levels,
			Z:          cfg.Z,
			BlockBytes: cfg.BlockBytes,
			NumBlocks:  opts.NumBlocks,
		})
		if err != nil {
			return nil, false, err
		}
		copts := opts
		copts.Levels = levels
		c, err := newController(scheme, cfg, copts, st, false)
		if err != nil {
			return nil, false, err
		}
		c.syncDurablePosMap()
		if err := c.persistDurable(); err != nil {
			return nil, false, err
		}
		return c, true, nil
	default:
		return nil, false, err
	}
}
