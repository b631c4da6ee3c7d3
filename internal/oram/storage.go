package oram

// Storage is the slot-granular backing store of an ORAM tree image: the
// physical medium the sealed buckets live on. The in-memory backend
// (memStorage) models NVM the way the rest of the simulator does —
// mutations survive exactly when the mem layer says they do — while
// internal/storage/filestore keeps the image on disk behind a
// crash-consistent persist barrier, so a real process kill exercises the
// paper's §4.3 recovery against durable state.
//
// Implementations hold Slot values as given: the sealed buffers are
// shared with the controller's recycling discipline. Slot reads return
// the stored value; they must not copy (the hot path depends on
// zero-allocation reads).
type Storage interface {
	// Slot returns the sealed slot at (bucket, z).
	Slot(bucket uint64, z int) Slot
	// SetSlot overwrites the sealed slot at (bucket, z).
	SetSlot(bucket uint64, z int, s Slot)
}

// StoreGeometry identifies the shape (and scheme) of a stored image, so
// a durable backend can be reopened without external metadata.
type StoreGeometry struct {
	Scheme     uint64 // config.Scheme, widened to avoid an import cycle
	Levels     int
	Z          int
	BlockBytes int
	NumBlocks  uint64
}

// memStorage is the default backend: the sealed tree image in process
// memory, one []Slot row per bucket. A row is allocated on the first
// write to its bucket: a fresh image (NewImage) shadows every slot with
// an overlay entry and writes here only what some observer materializes,
// which in-memory serving never does. A slot never written reads as the
// zero Slot.
type memStorage struct {
	z       int
	buckets [][]Slot
}

func newMemStorage(t Tree) *memStorage {
	return &memStorage{z: t.Z, buckets: make([][]Slot, t.Buckets())}
}

func (m *memStorage) Slot(bucket uint64, z int) Slot {
	if row := m.buckets[bucket]; row != nil {
		return row[z]
	}
	return Slot{}
}

func (m *memStorage) SetSlot(bucket uint64, z int, s Slot) {
	if m.buckets[bucket] == nil {
		m.buckets[bucket] = make([]Slot, m.z)
	}
	m.buckets[bucket][z] = s
}
