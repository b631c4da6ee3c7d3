package core

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// A durable snapshot is what NVM holds — the sealed tree image, the
// durable position map and the seal-version cursor — as the file
// store's records (filestore.WriteStream). Loading one is a §4.3
// recovery: every volatile structure starts empty.

// durableView is the controller's durable state as the records' source.
type durableView struct{ c *Controller }

func (v durableView) Slot(bucket uint64, z int) oram.Slot { return v.c.ORAM.Image.Slot(bucket, z) }
func (v durableView) Leaf(a oram.Addr) oram.Leaf          { return v.c.durable.Lookup(a) }
func (v durableView) VerSeq() uint32                      { return v.c.ORAM.VerSeq() }

// SaveDurable writes the controller's durable NVM state as a stream of
// the file store's records, in memory or file-backed alike.
func (c *Controller) SaveDurable(w io.Writer) error {
	if err := StorageSupported(c.Scheme); err != nil {
		return err
	}
	if c.closed {
		return errClosed
	}
	if c.crashed {
		return fmt.Errorf("core: recover before snapshotting")
	}
	g := storeGeometry(c.Scheme, c.Cfg, c.ORAM.Tree.L, c.ORAM.NumBlocks())
	if err := filestore.WriteStream(w, g, durableView{c}); err != nil {
		return err
	}
	c.counters.Inc("snapshot.saves")
	return nil
}

// LoadDurable reconstructs a controller from a durable snapshot. cfg
// supplies the run-time parameters (NVM timing, WPQ sizes, stash size)
// and runtime the execution-only options (memory model, group
// commit); the geometry and contents come from the snapshot. Loading
// performs the §4.3 recovery: volatile state starts empty and the
// on-chip map is the durable one. A stream cut short fails with
// io.ErrUnexpectedEOF, a damaged one with filestore.ErrCorrupted.
func LoadDurable(r io.Reader, cfg config.Config, runtime Options) (*Controller, error) {
	src, err := filestore.ReadStream(r)
	if err != nil {
		return nil, err
	}
	scheme := config.Scheme(src.Geometry().Scheme)
	if err := StorageSupported(scheme); err != nil {
		return nil, err
	}
	if err := adoptGeometry(scheme, &cfg, &runtime, src.Geometry(), "the snapshot"); err != nil {
		return nil, err
	}
	c, err := New(scheme, cfg, runtime)
	if err != nil {
		return nil, err
	}
	t := c.ORAM.Tree
	for b := uint64(0); b < t.Buckets(); b++ {
		for z := 0; z < t.Z; z++ {
			c.ORAM.Image.PutSlot(b, z, src.Slot(b, z))
		}
	}
	if err := c.restoreDurable(src); err != nil {
		c.Close()
		return nil, err
	}
	c.counters.Inc("snapshot.loads")
	return c, nil
}
