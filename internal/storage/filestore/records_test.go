package filestore

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/oram"
)

// patternSource is a Source whose every slot holds the same bytes.
type patternSource struct{ slot oram.Slot }

func (p patternSource) Slot(uint64, int) oram.Slot { return p.slot }
func (patternSource) Leaf(a oram.Addr) oram.Leaf   { return oram.Leaf(a) }
func (patternSource) VerSeq() uint32               { return 9 }

// TestReadStreamAllocation bounds what reading a stream allocates by the
// bytes it holds: the slot table grows by doubling, so its regrowths sum
// to less than twice the final table, and each data chunk's sealed bytes
// go into one header and one payload array. At L=12 (1024 chunks of 32
// slots, a 3.2 MB stream) the read allocates at most 2.5 bytes a stream
// byte and 4 objects a chunk (2.19 and 3.0 measured; at the parent of this
// test 4.17 and 65.0, a slot table regrown 1.25x at a time and two copies
// a slot).
func TestReadStreamAllocation(t *testing.T) {
	const levels, bytesPerByte, objectsPerChunk = 12, 2.5, 4
	tree := oram.NewTree(levels, 4)
	g := oram.StoreGeometry{Levels: levels, Z: 4, BlockBytes: 64, NumBlocks: 2 * tree.Leaves()}
	src := patternSource{oram.Slot{IV1: 1, IV2: 2, SealedHeader: bytes.Repeat([]byte{3}, oram.HeaderBytes), SealedData: bytes.Repeat([]byte{4}, 64)}}
	var stream bytes.Buffer
	if err := WriteStream(&stream, g, src); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := ReadStream(bytes.NewReader(stream.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Slot(tree.Buckets()-1, 3); s.IV2 != 2 || !bytes.Equal(s.SealedHeader, src.slot.SealedHeader) || !bytes.Equal(s.SealedData, src.slot.SealedData) {
		t.Fatalf("the last slot reads back as %+v", s)
	}
	alloc, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	perByte, perChunk := float64(alloc)/float64(stream.Len()), float64(objects)/float64(chunkCount(tree))
	t.Logf("L=%d: reading a %d-byte stream of %d chunks allocated %d bytes (%.2f a stream byte) in %d objects (%.1f a chunk)",
		levels, stream.Len(), chunkCount(tree), alloc, perByte, objects, perChunk)
	if perByte > bytesPerByte {
		t.Fatalf("reading the stream allocated %.2f bytes a stream byte, budget %.1f", perByte, bytesPerByte)
	}
	if perChunk > objectsPerChunk {
		t.Fatalf("reading the stream allocated %.1f objects a chunk, budget %d", perChunk, objectsPerChunk)
	}
}
