package filestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"repro/internal/oram"
)

// Each record has one encoder and one parser, shared by the directory
// and the stream; each ends in a CRC32-C of the record:
//
//	meta   "PSFM", format version, scheme, L, Z, block bytes, blocks, CRC
//	chunk  "PSFC", kind, index, epoch, payload, CRC
//	       data:  chunkBuckets buckets' slots: IV1, IV2, sealed header, sealed data
//	       state: seal-version cursor, root length (always 0), one leaf per block

const metaSize = 4 + 4 + 8 + 4 + 4 + 4 + 8 + 4

// Source is what the records are encoded from: the sealed slots, the
// durable position map and the seal-version cursor of a store, or of a
// controller's image.
type Source interface {
	Slot(bucket uint64, z int) oram.Slot
	Leaf(a oram.Addr) oram.Leaf
	VerSeq() uint32
}

// Contents is what a store holds, and all that a power cycle leaves:
// the geometry, the sealed slots, the durable position map and the
// seal-version cursor. A Store keeps its Contents in a directory;
// ReadStream reads one from a stream.
type Contents struct {
	geom   oram.StoreGeometry
	tree   oram.Tree
	slots  []oram.Slot // bucket*Z + z
	leaves []uint32
	verSeq uint32
}

// NewContents is the Contents of src, of geometry g. It keeps the slots
// as src returns them, without copying their bytes.
func NewContents(g oram.StoreGeometry, src Source) *Contents {
	t := oram.NewTree(g.Levels, g.Z)
	c := &Contents{geom: g, tree: t, slots: make([]oram.Slot, 0, t.Slots()), leaves: make([]uint32, g.NumBlocks), verSeq: src.VerSeq()}
	for i := range t.Slots() {
		c.slots = append(c.slots, src.Slot(i/uint64(g.Z), int(i%uint64(g.Z))))
	}
	for a := range c.leaves {
		c.leaves[a] = uint32(src.Leaf(oram.Addr(a)))
	}
	return c
}

// Geometry returns the stored shape.
func (c *Contents) Geometry() oram.StoreGeometry { return c.geom }

// Slot returns the sealed slot at (bucket, z), aliased (oram.Storage).
func (c *Contents) Slot(bucket uint64, z int) oram.Slot { return c.slots[int(bucket)*c.tree.Z+z] }

// SetSlot overwrites the sealed slot at (bucket, z) (oram.Storage).
func (c *Contents) SetSlot(bucket uint64, z int, s oram.Slot) { c.slots[int(bucket)*c.tree.Z+z] = s }

// Leaf returns a's durable PosMap entry as stored, unchecked.
func (c *Contents) Leaf(a oram.Addr) oram.Leaf { return oram.Leaf(c.leaves[a]) }

// VerSeq returns the stored seal-version cursor.
func (c *Contents) VerSeq() uint32 { return c.verSeq }

func validGeometry(g oram.StoreGeometry) error {
	if g.Levels < 1 || g.Levels > 30 || g.Z < 1 || g.Z > 64 ||
		g.BlockBytes < 8 || g.BlockBytes > 1<<16 {
		return fmt.Errorf("filestore: implausible geometry L=%d Z=%d block=%d", g.Levels, g.Z, g.BlockBytes)
	}
	t := oram.NewTree(g.Levels, g.Z)
	if g.NumBlocks == 0 || g.NumBlocks > t.Slots() {
		return fmt.Errorf("filestore: %d blocks do not fit a tree with %d slots", g.NumBlocks, t.Slots())
	}
	return nil
}

func appendMeta(buf []byte, g oram.StoreGeometry) []byte {
	start := len(buf)
	buf = append(buf, metaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVer)
	buf = binary.LittleEndian.AppendUint64(buf, g.Scheme)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Levels))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Z))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.BlockBytes))
	buf = binary.LittleEndian.AppendUint64(buf, g.NumBlocks)
	return appendCRC(buf, start)
}

func parseMeta(raw []byte) (oram.StoreGeometry, error) {
	var g oram.StoreGeometry
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

// appendCRC closes the record that starts at buf[start].
func appendCRC(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// appendChunkName appends a chunk's filename: "d<i>-<e>" or "s-<e>".
func appendChunkName(b []byte, kind byte, idx int, epoch uint64) []byte {
	if kind == kindData {
		b = append(b, 'd')
		b = strconv.AppendInt(b, int64(idx), 10)
	} else {
		b = append(b, 's')
	}
	b = append(b, '-')
	return strconv.AppendUint(b, epoch, 10)
}

func chunkName(kind byte, idx int, epoch uint64) string {
	return string(appendChunkName(nil, kind, idx, epoch))
}

func chunkCount(t oram.Tree) int { return (int(t.Buckets()) + chunkBuckets - 1) / chunkBuckets }

// chunkRange returns data chunk ci's bucket span [lo, hi).
func chunkRange(t oram.Tree, ci int) (lo, hi int) {
	lo = ci * chunkBuckets
	return lo, min(lo+chunkBuckets, int(t.Buckets()))
}

func dataChunkSize(t oram.Tree, blockBytes, ci int) int {
	lo, hi := chunkRange(t, ci)
	return chunkHdrSize + (hi-lo)*t.Z*(32+blockBytes) + 4
}

func stateChunkSize(numBlocks uint64) int { return chunkHdrSize + 8 + 4*int(numBlocks) + 4 }

func appendChunkHeader(buf []byte, kind byte, idx int, epoch uint64) []byte {
	buf = append(append(buf, chunkMagic...), kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
	return binary.LittleEndian.AppendUint64(buf, epoch)
}

// checkChunk authenticates a chunk record — size, CRC, magic and
// identity — and returns its payload.
func checkChunk(raw []byte, kind byte, idx int, epoch uint64, size int) ([]byte, error) {
	if len(raw) != size {
		return nil, fmt.Errorf("%w: %s: %d bytes, want %d", ErrCorrupted, chunkName(kind, idx, epoch), len(raw), size)
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: %s fails its checksum", ErrCorrupted, chunkName(kind, idx, epoch))
	}
	if string(body[:4]) != chunkMagic || body[4] != kind ||
		binary.LittleEndian.Uint32(body[5:]) != uint32(idx) ||
		binary.LittleEndian.Uint64(body[9:]) != epoch {
		return nil, fmt.Errorf("%w: %s carries a foreign identity", ErrCorrupted, chunkName(kind, idx, epoch))
	}
	return body[chunkHdrSize:], nil
}

func appendDataChunk(buf []byte, src Source, t oram.Tree, ci int, epoch uint64) []byte {
	start := len(buf)
	buf = appendChunkHeader(buf, kindData, ci, epoch)
	lo, hi := chunkRange(t, ci)
	for b := lo; b < hi; b++ {
		for z := 0; z < t.Z; z++ {
			sl := src.Slot(uint64(b), z)
			buf = binary.LittleEndian.AppendUint64(buf, sl.IV1)
			buf = binary.LittleEndian.AppendUint64(buf, sl.IV2)
			buf = append(buf, sl.SealedHeader...)
			buf = append(buf, sl.SealedData...)
		}
	}
	return appendCRC(buf, start)
}

// parseDataChunk checks raw as data chunk ci at epoch and copies its
// slots, in index order, into slots: the chunk's sealed headers into one
// fresh array and its sealed payloads into another, each slot's view
// capped to its own bytes.
func parseDataChunk(raw []byte, t oram.Tree, blockBytes, ci int, epoch uint64, slots []oram.Slot) error {
	payload, err := checkChunk(raw, kindData, ci, epoch, dataChunkSize(t, blockBytes, ci))
	if err != nil {
		return err
	}
	const hb = oram.HeaderBytes
	size := 16 + hb + blockBytes
	hdrs, data := make([]byte, len(slots)*hb), make([]byte, len(slots)*blockBytes)
	for i := range slots {
		p := payload[i*size : (i+1)*size]
		h, d := hdrs[i*hb:(i+1)*hb:(i+1)*hb], data[i*blockBytes:(i+1)*blockBytes:(i+1)*blockBytes]
		copy(h, p[16:16+hb])
		copy(d, p[16+hb:])
		slots[i] = oram.Slot{
			IV1:          binary.LittleEndian.Uint64(p),
			IV2:          binary.LittleEndian.Uint64(p[8:]),
			SealedHeader: h,
			SealedData:   d,
		}
	}
	return nil
}

func appendStateChunk(buf []byte, src Source, numBlocks, epoch uint64) []byte {
	start := len(buf)
	buf = appendChunkHeader(buf, kindState, 0, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, src.VerSeq())
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved root length
	for a := oram.Addr(0); uint64(a) < numBlocks; a++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(src.Leaf(a)))
	}
	return appendCRC(buf, start)
}

// parseStateChunk checks raw as the state chunk at epoch, fills leaves
// and returns the seal-version cursor.
func parseStateChunk(raw []byte, epoch uint64, leaves []uint32) (uint32, error) {
	payload, err := checkChunk(raw, kindState, 0, epoch, stateChunkSize(uint64(len(leaves))))
	if err != nil {
		return 0, err
	}
	if rootLen := binary.LittleEndian.Uint32(payload[4:]); rootLen != 0 {
		return 0, fmt.Errorf("%w: %s: root length %d, want 0", ErrCorrupted, chunkName(kindState, 0, epoch), rootLen)
	}
	for i := range leaves {
		leaves[i] = binary.LittleEndian.Uint32(payload[8+4*i:])
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// streamEpoch is the epoch every chunk of a stream carries.
const streamEpoch = 1

// WriteStream writes src, of geometry g, as the store's records: meta,
// the state chunk, then every data chunk in index order.
func WriteStream(w io.Writer, g oram.StoreGeometry, src Source) error {
	buf := appendStateChunk(appendMeta(nil, g), src, g.NumBlocks, streamEpoch)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	t := oram.NewTree(g.Levels, g.Z)
	for ci := 0; ci < chunkCount(t); ci++ {
		buf = appendDataChunk(buf[:0], src, t, ci, streamEpoch)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadStream reads what WriteStream wrote. It reads each record whole
// before it builds anything from it, so what it allocates follows the
// bytes present, never a count a record claims: the slot table doubles
// as chunks arrive, up to the geometry's slot count, and the parsers copy
// out of one read buffer. A stream that ends early fails with
// io.ErrUnexpectedEOF, a damaged one with ErrCorrupted.
func ReadStream(r io.Reader) (*Contents, error) {
	raw, err := readRecord(r, metaSize, nil)
	if err != nil {
		return nil, err
	}
	g, err := parseMeta(raw)
	if err != nil {
		return nil, err
	}
	c := &Contents{geom: g, tree: oram.NewTree(g.Levels, g.Z)}
	if raw, err = readRecord(r, stateChunkSize(g.NumBlocks), raw); err != nil {
		return nil, err
	}
	c.leaves = make([]uint32, g.NumBlocks)
	if c.verSeq, err = parseStateChunk(raw, streamEpoch, c.leaves); err != nil {
		return nil, err
	}
	for ci := 0; ci < chunkCount(c.tree); ci++ {
		if raw, err = readRecord(r, dataChunkSize(c.tree, g.BlockBytes, ci), raw); err != nil {
			return nil, err
		}
		lo, hi := chunkRange(c.tree, ci)
		n, m := len(c.slots), len(c.slots)+(hi-lo)*g.Z
		if m > cap(c.slots) {
			grown := make([]oram.Slot, n, min(max(2*cap(c.slots), m), int(c.tree.Slots())))
			copy(grown, c.slots)
			c.slots = grown
		}
		c.slots = c.slots[:m]
		if err := parseDataChunk(raw, c.tree, g.BlockBytes, ci, streamEpoch, c.slots[n:]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// readRecord reads the next n bytes of a stream into buf through a
// limit, so that a short stream's buffer follows the bytes present, not n.
func readRecord(r io.Reader, n int, buf []byte) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(io.LimitReader(r, int64(n))); err != nil {
		return nil, err
	}
	if b.Len() < n {
		return nil, fmt.Errorf("filestore: stream ends %d bytes into a %d-byte record: %w", b.Len(), n, io.ErrUnexpectedEOF)
	}
	return b.Bytes(), nil
}
