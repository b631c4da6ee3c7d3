package filestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/oram"
)

// Open reopens the store at dir, reconstructing the latest consistent
// version: the epoch named by the newest valid version record, with each
// chunk taken from its highest-epoch file not newer than that commit.
// Uncommitted leftovers (files from interrupted persists) are deleted.
//
// It returns ErrNoStore when dir holds no committed store (nothing was
// ever durable — creating fresh is safe) and ErrCorrupted when the
// committed state is damaged: recovery never silently substitutes stale
// data for a committed chunk.
func Open(dir string) (*Store, error) {
	g, committed, err := Probe(dir)
	if err != nil {
		return nil, err
	}
	s := newStore(dir, g)

	chunksDir := filepath.Join(dir, "chunks")
	ents, err := os.ReadDir(chunksDir)
	if err != nil {
		return nil, fmt.Errorf("%w: reading chunks: %v", ErrCorrupted, err)
	}
	// Pick, per chunk, the newest epoch ≤ committed; collect everything
	// else (strays from interrupted persists, superseded epochs not yet
	// GCed) for deletion after a successful load. best holds the data
	// chunks' epochs, then the state chunk's.
	var garbage []string
	nChunks := len(s.chunkEpoch)
	best := make([]uint64, nChunks+1)
	for _, e := range ents {
		name := e.Name()
		kind, idx, epoch, ok := parseChunkName(name)
		if !ok {
			continue // foreign file; leave it alone
		}
		if kind == kindState {
			idx = nChunks
		}
		switch {
		case epoch > committed || kind == kindData && idx >= nChunks:
			garbage = append(garbage, filepath.Join(chunksDir, name))
		case epoch > best[idx]:
			if best[idx] != 0 {
				garbage = append(garbage, filepath.Join(chunksDir, chunkName(kind, idx, best[idx])))
			}
			best[idx] = epoch
		default:
			garbage = append(garbage, filepath.Join(chunksDir, name))
		}
	}
	copy(s.chunkEpoch, best)
	s.stateEpoch = best[nChunks]
	for ci := 0; ci < nChunks; ci++ {
		if best[ci] == 0 {
			return nil, fmt.Errorf("%w: data chunk %d has no file at or below committed epoch %d", ErrCorrupted, ci, committed)
		}
		raw, err := s.readChunk(kindData, ci, best[ci])
		if err != nil {
			return nil, err
		}
		lo, hi := chunkRange(s.tree, ci)
		if err := parseDataChunk(raw, s.tree, g.BlockBytes, ci, best[ci], s.slots[lo*g.Z:hi*g.Z]); err != nil {
			return nil, err
		}
	}
	if s.stateEpoch == 0 {
		return nil, fmt.Errorf("%w: no state chunk at or below committed epoch %d", ErrCorrupted, committed)
	}
	raw, err := s.readChunk(kindState, 0, s.stateEpoch)
	if err != nil {
		return nil, err
	}
	if s.verSeq, err = parseStateChunk(raw, s.stateEpoch, s.leaves); err != nil {
		return nil, err
	}
	s.epoch = committed
	// Only after the full load succeeded: retire garbage (a failed load
	// must leave the directory untouched for post-mortem inspection).
	for _, p := range garbage {
		os.Remove(p)
	}
	return s, nil
}

// readChunk reads chunk file (kind, idx, epoch) whole.
func (s *Store) readChunk(kind byte, idx int, epoch uint64) ([]byte, error) {
	path := s.chunkPath(kind, idx, epoch)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrCorrupted, filepath.Base(path), err)
	}
	return raw, nil
}

// Probe is Open's first step, and writes nothing: the geometry from the
// meta record and the committed epoch from the version record, without
// loading or deleting a chunk. It fails as Open does: ErrNoStore when
// nothing was ever committed, ErrCorrupted when a commit's records are
// damaged.
func Probe(dir string) (oram.StoreGeometry, uint64, error) {
	committed, err := readVersionFile(filepath.Join(dir, "version"))
	if err != nil {
		return oram.StoreGeometry{}, 0, err
	}
	if committed == 0 {
		// Chunks from epoch 2 or later prove a commit happened (epoch
		// e+1 files are only ever written after epoch e committed), so
		// the record was destroyed. Epoch-1-only chunks are the
		// leftovers of a Create killed before its first flip: nothing
		// was ever durable, recreating is safe.
		if maxChunkEpoch(filepath.Join(dir, "chunks")) > 1 {
			return oram.StoreGeometry{}, 0, fmt.Errorf("%w: committed chunks present but no valid version record", ErrCorrupted)
		}
		return oram.StoreGeometry{}, 0, fmt.Errorf("%w: store at %s was never committed", ErrNoStore, dir)
	}
	// A commit happened, so the meta record Create wrote first is there.
	raw, err := os.ReadFile(filepath.Join(dir, "meta"))
	if err != nil {
		return oram.StoreGeometry{}, 0, fmt.Errorf("%w: reading meta: %v", ErrCorrupted, err)
	}
	g, err := parseMeta(raw)
	return g, committed, err
}

// readVersionFile returns the committed epoch: the highest epoch among
// the (up to two) valid records, 0 if there is none. A torn record —
// mid-write when the power died — fails its CRC and is ignored; the
// OTHER slot still holds the previous commit, which is exactly the
// fallback the dual-slot layout buys.
func readVersionFile(path string) (uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	bestEpoch := uint64(0)
	for off := 0; off+verRecSize <= len(raw) && off < 2*verRecSize; off += verRecSize {
		rec := raw[off : off+verRecSize]
		if string(rec[:4]) != verMagic {
			continue
		}
		if crc32.Checksum(rec[:12], castagnoli) != binary.LittleEndian.Uint32(rec[12:]) {
			continue
		}
		epoch := binary.LittleEndian.Uint64(rec[4:])
		if epoch == 0 {
			continue
		}
		// A valid record must sit in its own slot: epoch e lives at slot
		// e%2. A duplicate or misplaced record is a sign of tampering.
		if int(epoch%2)*verRecSize != off {
			return 0, fmt.Errorf("%w: version record for epoch %d in the wrong slot", ErrCorrupted, epoch)
		}
		if epoch > bestEpoch {
			bestEpoch = epoch
		}
	}
	return bestEpoch, nil
}

// maxChunkEpoch returns the highest epoch named by any chunk file (0 if
// none): evidence of how far the persist history provably got.
func maxChunkEpoch(chunksDir string) uint64 {
	ents, err := os.ReadDir(chunksDir)
	if err != nil {
		return 0
	}
	max := uint64(0)
	for _, e := range ents {
		if _, _, epoch, ok := parseChunkName(e.Name()); ok && epoch > max {
			max = epoch
		}
	}
	return max
}
