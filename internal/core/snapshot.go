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

// LoadDurable reconstructs a controller from a durable snapshot: the
// stream read into a filestore.Contents, then the §4.3 recovery a store
// reopen runs (recoverController). The geometry and contents come from
// the snapshot; cfg supplies the run-time parameters and runtime the
// execution-only options. A snapshot loads into memory, so a
// runtime.StoreDir is refused. A stream cut short fails with
// io.ErrUnexpectedEOF, a damaged one with filestore.ErrCorrupted.
func LoadDurable(r io.Reader, cfg config.Config, runtime Options) (*Controller, error) {
	if runtime.StoreDir != "" {
		return nil, fmt.Errorf("core: a snapshot loads into memory, not into the store directory %s", runtime.StoreDir)
	}
	src, err := filestore.ReadStream(r)
	if err != nil {
		return nil, err
	}
	return recoverController(config.Scheme(src.Geometry().Scheme), cfg, runtime, nil, src)
}
