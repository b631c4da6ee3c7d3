package filestore

import (
	"encoding/binary"
	"errors"
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
	g, err := readMeta(filepath.Join(dir, "meta"))
	if err != nil {
		return nil, err
	}
	s := newStore(dir, g)

	committed, err := readVersionFile(filepath.Join(dir, "version"))
	if err != nil {
		if !errors.Is(err, errNoVersion) {
			return nil, err
		}
		// No valid version record. Chunks from epoch 2 or later prove a
		// commit happened (epoch e+1 files are only ever written after
		// epoch e committed), so the record was destroyed — corruption.
		// Epoch-1-only chunks are the leftovers of a Create killed before
		// its first flip: nothing was ever durable, recreating is safe.
		if maxChunkEpoch(filepath.Join(dir, "chunks")) > 1 {
			return nil, fmt.Errorf("%w: committed chunks present but no valid version record", ErrCorrupted)
		}
		return nil, fmt.Errorf("%w: store at %s was never committed", ErrNoStore, dir)
	}

	chunksDir := filepath.Join(dir, "chunks")
	ents, err := os.ReadDir(chunksDir)
	if err != nil {
		return nil, fmt.Errorf("%w: reading chunks: %v", ErrCorrupted, err)
	}
	// Pick, per chunk, the newest epoch ≤ committed; collect everything
	// else (strays from interrupted persists, superseded epochs not yet
	// GCed) for deletion after a successful load.
	var garbage []string
	stateBest := uint64(0)
	best := s.chunkEpoch // zeroed; reused as the per-chunk best epoch
	for _, e := range ents {
		name := e.Name()
		kind, idx, epoch, ok := parseChunkName(name)
		if !ok {
			continue // foreign file; leave it alone
		}
		if epoch > committed {
			garbage = append(garbage, filepath.Join(chunksDir, name))
			continue
		}
		switch {
		case kind == kindData && idx < s.nChunks:
			if epoch > best[idx] {
				if best[idx] != 0 {
					garbage = append(garbage, filepath.Join(chunksDir, s.dataChunkName(idx, best[idx])))
				}
				best[idx] = epoch
			} else {
				garbage = append(garbage, filepath.Join(chunksDir, name))
			}
		case kind == kindState:
			if epoch > stateBest {
				if stateBest != 0 {
					garbage = append(garbage, filepath.Join(chunksDir, fmt.Sprintf("s-%d", stateBest)))
				}
				stateBest = epoch
			} else {
				garbage = append(garbage, filepath.Join(chunksDir, name))
			}
		default:
			garbage = append(garbage, filepath.Join(chunksDir, name))
		}
	}
	for ci := 0; ci < s.nChunks; ci++ {
		if best[ci] == 0 {
			return nil, fmt.Errorf("%w: data chunk %d has no file at or below committed epoch %d", ErrCorrupted, ci, committed)
		}
		if err := s.loadDataChunk(ci, best[ci]); err != nil {
			return nil, err
		}
	}
	if stateBest == 0 {
		return nil, fmt.Errorf("%w: no state chunk at or below committed epoch %d", ErrCorrupted, committed)
	}
	if err := s.loadStateChunk(stateBest); err != nil {
		return nil, err
	}
	s.stateEpoch = stateBest
	s.epoch = committed
	// Only after the full load succeeded: retire garbage (a failed load
	// must leave the directory untouched for post-mortem inspection).
	for _, p := range garbage {
		os.Remove(p)
	}
	return s, nil
}

func (s *Store) dataChunkName(idx int, epoch uint64) string {
	return fmt.Sprintf("d%d-%d", idx, epoch)
}

// readChunkFile reads and authenticates one chunk file, returning its
// payload (after the header, before the CRC).
func (s *Store) readChunkFile(kind byte, idx int, epoch uint64) ([]byte, error) {
	path := s.chunkPath(kind, idx, epoch)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrCorrupted, filepath.Base(path), err)
	}
	if len(raw) < chunkHdrSize+4 {
		return nil, fmt.Errorf("%w: %s truncated (%d bytes)", ErrCorrupted, filepath.Base(path), len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: %s fails its checksum", ErrCorrupted, filepath.Base(path))
	}
	if string(body[:4]) != chunkMagic || body[4] != kind ||
		binary.LittleEndian.Uint32(body[5:]) != uint32(idx) ||
		binary.LittleEndian.Uint64(body[9:]) != epoch {
		return nil, fmt.Errorf("%w: %s carries a foreign identity", ErrCorrupted, filepath.Base(path))
	}
	return body[chunkHdrSize:], nil
}

func (s *Store) loadDataChunk(ci int, epoch uint64) error {
	payload, err := s.readChunkFile(kindData, ci, epoch)
	if err != nil {
		return err
	}
	lo, hi := s.bucketRange(ci)
	slotSize := 16 + 16 + s.geom.BlockBytes
	want := (hi - lo) * s.tree.Z * slotSize
	if len(payload) != want {
		return fmt.Errorf("%w: data chunk %d epoch %d: %d payload bytes, want %d", ErrCorrupted, ci, epoch, len(payload), want)
	}
	off := 0
	for b := lo; b < hi; b++ {
		for z := 0; z < s.tree.Z; z++ {
			var sl oram.Slot
			sl.IV1 = binary.LittleEndian.Uint64(payload[off:])
			sl.IV2 = binary.LittleEndian.Uint64(payload[off+8:])
			sl.SealedHeader = append([]byte(nil), payload[off+16:off+32]...)
			sl.SealedData = append([]byte(nil), payload[off+32:off+32+s.geom.BlockBytes]...)
			s.slots[b*s.tree.Z+z] = sl
			off += slotSize
		}
	}
	s.chunkEpoch[ci] = epoch
	return nil
}

func (s *Store) loadStateChunk(epoch uint64) error {
	payload, err := s.readChunkFile(kindState, 0, epoch)
	if err != nil {
		return err
	}
	if len(payload) < 8 {
		return fmt.Errorf("%w: state chunk epoch %d truncated", ErrCorrupted, epoch)
	}
	s.verSeq = binary.LittleEndian.Uint32(payload)
	if rootLen := binary.LittleEndian.Uint32(payload[4:]); rootLen != 0 {
		return fmt.Errorf("%w: state chunk epoch %d: root length %d, want 0", ErrCorrupted, epoch, rootLen)
	}
	if want := 8 + 4*len(s.leaves); len(payload) != want {
		return fmt.Errorf("%w: state chunk epoch %d: %d payload bytes, want %d", ErrCorrupted, epoch, len(payload), want)
	}
	leaves := s.tree.Leaves()
	for i := range s.leaves {
		l := binary.LittleEndian.Uint32(payload[8+4*i:])
		if uint64(l) >= leaves {
			return fmt.Errorf("%w: state chunk epoch %d: leaf %d out of range for addr %d", ErrCorrupted, epoch, l, i)
		}
		s.leaves[i] = l
	}
	return nil
}

// errNoVersion distinguishes "no valid version record" (maybe a fresh
// store) from hard IO failures inside readVersionFile.
var errNoVersion = errors.New("filestore: no valid version record")

// readVersionFile returns the committed epoch: the highest epoch among
// the (up to two) valid records. A torn record — mid-write when the
// power died — fails its CRC and is ignored; the OTHER slot still holds
// the previous commit, which is exactly the fallback the dual-slot
// layout buys.
func readVersionFile(path string) (uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, errNoVersion
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
	if bestEpoch == 0 {
		return 0, errNoVersion
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

// readMeta loads and validates the immutable geometry record.
func readMeta(path string) (oram.StoreGeometry, error) {
	var g oram.StoreGeometry
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return g, fmt.Errorf("%w: no meta at %s", ErrNoStore, path)
		}
		return g, err
	}
	const metaSize = 4 + 4 + 8 + 4 + 4 + 4 + 8 + 4
	if len(raw) != metaSize || string(raw[:4]) != metaMagic {
		return g, fmt.Errorf("%w: bad meta record", ErrCorrupted)
	}
	if crc32.Checksum(raw[:metaSize-4], castagnoli) != binary.LittleEndian.Uint32(raw[metaSize-4:]) {
		return g, fmt.Errorf("%w: meta fails its checksum", ErrCorrupted)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != formatVer {
		return g, fmt.Errorf("%w: unsupported format version %d", ErrCorrupted, v)
	}
	g.Scheme = binary.LittleEndian.Uint64(raw[8:])
	g.Levels = int(binary.LittleEndian.Uint32(raw[16:]))
	g.Z = int(binary.LittleEndian.Uint32(raw[20:]))
	g.BlockBytes = int(binary.LittleEndian.Uint32(raw[24:]))
	g.NumBlocks = binary.LittleEndian.Uint64(raw[28:])
	if err := validGeometry(g); err != nil {
		return g, fmt.Errorf("%w: %v", ErrCorrupted, err)
	}
	return g, nil
}
