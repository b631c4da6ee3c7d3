// Package filestore is the durable storage backend: the sealed ORAM
// image, the durable position map, the seal-version cursor, and the
// trusted integrity root kept on disk behind a crash-consistent persist
// barrier, so that killing the process at ANY instruction leaves a store
// the §4.3 recovery path can reopen.
//
// # Layout
//
//	dir/meta              immutable geometry record (written once at Create)
//	dir/version           two fixed-offset version records (A/B slots)
//	dir/chunks/d<i>-<e>   data chunk i as written by persist epoch e
//	dir/chunks/s-<e>      state chunk (posmap + verSeq + root) of epoch e
//
// Every chunk file carries a magic, its own identity (kind, index,
// epoch), and a CRC32-C over its whole content, so recovery can tell a
// torn or corrupted file from a valid one without trusting anything
// else.
//
// # Persist barrier
//
// Persist writes each dirty chunk to a NEW file named by the next epoch
// (never overwriting the committed files), fsyncs those files and the
// chunks directory, and only then flips the version record — a single
// ≤64-byte write to a fixed offset — and fsyncs it. The version flip is
// the commit point: a crash anywhere before it leaves the previous
// epoch's files untouched and the previous version record in place; a
// crash anywhere after it leaves the new epoch fully fsynced on disk.
// This is the same ordering discipline as the paper's counter/queue
// persist (WPQ batch first, commit record last): data before marker,
// with an fence (fsync) between. Superseded files are garbage-collected
// only after the flip.
//
// The barrier has two entry points. Persist runs it synchronously.
// PersistAsync snapshots the dirty set into a job and hands it to a
// background worker, so callers can accumulate several accesses' worth
// of dirty chunks and commit them in ONE epoch (group commit): the
// per-epoch cost — chunk writes fanned out across goroutines, one flip,
// two fsync rounds — is amortized over the whole group, while the flip
// remains the single commit point, so recovery always lands on a group
// boundary. The onDone callback runs on the worker after the flip;
// that is the durability edge acks may be released on.
//
// # Recovery
//
// Open reads the committed epoch from the version record (the valid slot
// with the highest epoch), then reconstructs the image from, per chunk,
// the highest-epoch file not newer than the commit. Files from epochs
// newer than the commit are uncommitted leftovers of an interrupted
// persist and are deleted; a missing or corrupt file at or below the
// commit is real damage and fails loudly with ErrCorrupted — never a
// silent fallback to stale data.
package filestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/oram"
)

// Typed failures callers dispatch on.
var (
	// ErrNoStore reports that dir holds no committed store: either the
	// directory is empty/absent or a Create was killed before its first
	// persist barrier completed. Creating a fresh store is safe.
	ErrNoStore = errors.New("filestore: no committed store")
	// ErrCorrupted reports that the store's committed state is damaged:
	// a chunk the version record promises is missing, torn, or fails its
	// checksum. Recovery refuses to guess.
	ErrCorrupted = errors.New("filestore: store corrupted")
)

const (
	metaMagic    = "PSFM"
	chunkMagic   = "PSFC"
	verMagic     = "PSFV"
	formatVer    = 1
	kindData     = 0
	kindState    = 1
	verRecSize   = 64 // two records at offsets 0 and verRecSize
	chunkHdrSize = 4 + 1 + 4 + 8
	// chunkBuckets is the data-chunk granule: how many buckets share one
	// chunk file. Small enough that a typical persist rewrites a few
	// chunks, large enough that the chunk count stays in the hundreds.
	chunkBuckets = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is a file-backed oram.Storage plus the durable side state the
// controller mirrors into it (position map, seal-version cursor,
// integrity root). All methods are single-threaded, like the controller
// that owns it.
type Store struct {
	dir  string
	geom oram.StoreGeometry
	tree oram.Tree

	slots  []oram.Slot // bucket*Z + z
	leaves []uint32
	verSeq uint32
	root   []byte

	epoch      uint64   // committed persist epoch (0 = nothing committed)
	chunkEpoch []uint64 // on-disk epoch per data chunk (0 = none yet)
	stateEpoch uint64

	nChunks    int
	dirty      []bool
	dirtyList  []int
	stateDirty bool

	buf  []byte // reusable chunk serialization buffer
	name []byte // reusable filename buffer

	// Async group barrier (PersistAsync). At most one persist job is in
	// flight on the background worker; the owner thread serializes the
	// next epoch into job-owned buffers before handing it off, so the
	// worker never touches live store state. spare recycles the previous
	// job's buffers, failed latches the first barrier error (a store
	// whose disk state diverged from its in-memory view stays failed).
	jobs     chan *persistJob
	inFlight *persistJob
	spare    *persistJob
	failed   error

	// Test-only sabotage switches (see the Testing* methods).
	noFlip  bool
	keepOld bool
}

// persistJob is one group barrier handed to the background worker: the
// fully serialized chunk files for one epoch, the superseded files to
// retire after the flip, and the completion callback. Its buffers are
// owned by the job from enqueue until the owner thread waits it out.
type persistJob struct {
	dir     string
	epoch   uint64
	files   []jobFile
	gc      []string
	noFlip  bool
	keepOld bool
	onDone  func(error)
	done    chan struct{}
	err     error
	free    [][]byte // recycled serialization buffers
}

type jobFile struct {
	path string
	data []byte
}

func (j *persistJob) reset() {
	for i := range j.files {
		j.free = append(j.free, j.files[i].data[:0])
		j.files[i] = jobFile{}
	}
	j.files = j.files[:0]
	j.gc = j.gc[:0]
	j.onDone = nil
	j.err = nil
	j.done = make(chan struct{})
}

// grab returns a recycled serialization buffer (nil grows a fresh one).
func (j *persistJob) grab() []byte {
	if n := len(j.free); n > 0 {
		b := j.free[n-1]
		j.free[n-1] = nil
		j.free = j.free[:n-1]
		return b
	}
	return nil
}

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

func newStore(dir string, g oram.StoreGeometry) *Store {
	t := oram.NewTree(g.Levels, g.Z)
	nSlots := int(t.Buckets()) * t.Z
	nChunks := (int(t.Buckets()) + chunkBuckets - 1) / chunkBuckets
	return &Store{
		dir:        dir,
		geom:       g,
		tree:       t,
		slots:      make([]oram.Slot, nSlots),
		leaves:     make([]uint32, g.NumBlocks),
		chunkEpoch: make([]uint64, nChunks),
		nChunks:    nChunks,
		dirty:      make([]bool, nChunks),
		dirtyList:  make([]int, 0, nChunks),
	}
}

// Create initializes a fresh store at dir. Any uncommitted leftovers of
// a previous interrupted Create (Open returned ErrNoStore) are wiped.
// Nothing is durable until the first Persist; a kill before that leaves
// dir in the ErrNoStore state, so create-or-open converges.
func Create(dir string, g oram.StoreGeometry) (*Store, error) {
	if err := validGeometry(g); err != nil {
		return nil, err
	}
	// Refuse to clobber a committed store — and refuse to silently wipe
	// a corrupted one (the caller should see the damage, not lose it).
	if _, err := readVersionFile(filepath.Join(dir, "version")); err == nil {
		return nil, fmt.Errorf("filestore: committed store already exists at %s", dir)
	} else if !errors.Is(err, errNoVersion) {
		return nil, err
	}
	if maxChunkEpoch(filepath.Join(dir, "chunks")) > 1 {
		return nil, fmt.Errorf("%w: committed chunks present but no valid version record", ErrCorrupted)
	}
	chunksDir := filepath.Join(dir, "chunks")
	if err := os.MkdirAll(chunksDir, 0o755); err != nil {
		return nil, err
	}
	// Wipe uncommitted leftovers so chunk epochs restart cleanly.
	if ents, err := os.ReadDir(chunksDir); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(chunksDir, e.Name()))
		}
	}
	os.Remove(filepath.Join(dir, "version"))
	if err := writeMeta(dir, g); err != nil {
		return nil, err
	}
	// Seed an all-invalid version file so the flip is always an
	// in-place fixed-offset write, never a file creation.
	vf, err := os.OpenFile(filepath.Join(dir, "version"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := vf.Write(make([]byte, 2*verRecSize)); err != nil {
		vf.Close()
		return nil, err
	}
	if err := vf.Sync(); err != nil {
		vf.Close()
		return nil, err
	}
	vf.Close()
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return newStore(dir, g), nil
}

// Geometry returns the stored shape.
func (s *Store) Geometry() oram.StoreGeometry { return s.geom }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the committed persist epoch (diagnostics and tests).
func (s *Store) Epoch() uint64 { return s.epoch }

// Slot returns the sealed slot at (bucket, z). It aliases the store's
// cached copy, per the oram.Storage contract.
func (s *Store) Slot(bucket uint64, z int) oram.Slot {
	return s.slots[int(bucket)*s.tree.Z+z]
}

// SetSlot overwrites the sealed slot at (bucket, z) and marks its chunk
// dirty for the next persist barrier.
func (s *Store) SetSlot(bucket uint64, z int, sl oram.Slot) {
	s.slots[int(bucket)*s.tree.Z+z] = sl
	ci := int(bucket) / chunkBuckets
	if !s.dirty[ci] {
		s.dirty[ci] = true
		s.dirtyList = append(s.dirtyList, ci)
	}
}

// Leaf returns the durable position-map entry for a.
func (s *Store) Leaf(a oram.Addr) oram.Leaf { return oram.Leaf(s.leaves[a]) }

// SetLeaf overwrites the durable position-map entry for a.
func (s *Store) SetLeaf(a oram.Addr, l oram.Leaf) {
	if s.leaves[a] == uint32(l) {
		return
	}
	s.leaves[a] = uint32(l)
	s.stateDirty = true
}

// VerSeq returns the stored seal-version cursor.
func (s *Store) VerSeq() uint32 { return s.verSeq }

// SetVerSeq overwrites the stored seal-version cursor.
func (s *Store) SetVerSeq(v uint32) {
	if s.verSeq == v {
		return
	}
	s.verSeq = v
	s.stateDirty = true
}

// Root returns the stored trusted integrity root (nil when integrity is
// off).
func (s *Store) Root() []byte { return s.root }

// SetRoot overwrites the stored trusted integrity root.
func (s *Store) SetRoot(root []byte) {
	if string(s.root) == string(root) {
		return
	}
	s.root = append(s.root[:0], root...)
	s.stateDirty = true
}

// Close waits out any in-flight group barrier, persists any remaining
// dirty state, and releases the store (stopping the persist worker).
func (s *Store) Close() error {
	err := s.Barrier()
	if s.jobs != nil {
		close(s.jobs)
		s.jobs = nil
	}
	if err != nil {
		return err
	}
	return s.Persist()
}

// TestingDisableVersionFlip sabotages the persist barrier for mutation
// testing: chunks are still written and fsynced, but the version record
// is never flipped, so recovery reopens the last epoch committed before
// the sabotage. The kill -9 harness must catch the resulting stale
// state; if it does not, the harness is broken.
func (s *Store) TestingDisableVersionFlip() { s.noFlip = true }

// TestingKeepSuperseded disables post-flip garbage collection, freezing
// the window between flip and cleanup that a real crash can expose (old
// and new epoch files coexisting). Corruption tests use it to construct
// torn-flip scenarios deterministically.
func (s *Store) TestingKeepSuperseded() { s.keepOld = true }

// Persist runs the ordered barrier: write-new → fsync → flip version
// record → fsync → GC. On return (absent sabotage) the store's current
// state is the committed on-disk version. Any in-flight group barrier
// is waited out first, so epochs always commit in order.
func (s *Store) Persist() error {
	if err := s.Barrier(); err != nil {
		return err
	}
	if len(s.dirtyList) == 0 && !s.stateDirty {
		return nil
	}
	next := s.epoch + 1
	sort.Ints(s.dirtyList)
	for _, ci := range s.dirtyList {
		if err := s.writeDataChunk(ci, next); err != nil {
			return err
		}
	}
	wroteState := s.stateDirty
	if wroteState {
		if err := s.writeStateChunk(next); err != nil {
			return err
		}
	}
	// The chunk files' names must be durable before the flip promises
	// their content exists.
	if err := syncDir(filepath.Join(s.dir, "chunks")); err != nil {
		return err
	}
	if !s.noFlip {
		if err := s.flipVersion(next); err != nil {
			return err
		}
	}
	// Commit point passed: retire the superseded files.
	if !s.noFlip && !s.keepOld {
		for _, ci := range s.dirtyList {
			if old := s.chunkEpoch[ci]; old != 0 && old != next {
				os.Remove(s.chunkPath(kindData, ci, old))
			}
		}
		if wroteState && s.stateEpoch != 0 && s.stateEpoch != next {
			os.Remove(s.chunkPath(kindState, 0, s.stateEpoch))
		}
	}
	for _, ci := range s.dirtyList {
		s.chunkEpoch[ci] = next
		s.dirty[ci] = false
	}
	if wroteState {
		s.stateEpoch = next
	}
	s.dirtyList = s.dirtyList[:0]
	s.stateDirty = false
	s.epoch = next
	return nil
}

// Barrier waits out any in-flight group barrier and returns the store's
// sticky failure state. After a clean Barrier the last PersistAsync
// epoch is the committed on-disk version (absent sabotage).
func (s *Store) Barrier() error {
	if j := s.inFlight; j != nil {
		<-j.done
		s.inFlight = nil
		if j.err != nil && s.failed == nil {
			s.failed = j.err
		}
		s.spare = j
	}
	return s.failed
}

// PersistAsync runs the same ordered barrier as Persist on a background
// worker: the caller's thread serializes every dirty chunk for the next
// epoch into job-owned buffers (so the store may keep mutating freely),
// then the worker writes, fsyncs, flips the version record, and retires
// superseded files. onDone fires exactly once from the worker (or
// inline when nothing is dirty) after the epoch is durable — or with
// the barrier's error. If PersistAsync itself returns an error, onDone
// is never called.
//
// At most one job is in flight: a second PersistAsync (or Persist, or
// Close) first waits the previous job out, so on disk there is never
// more than one uncommitted epoch and commits happen in order.
func (s *Store) PersistAsync(onDone func(error)) error {
	if err := s.Barrier(); err != nil {
		return err
	}
	if len(s.dirtyList) == 0 && !s.stateDirty {
		if onDone != nil {
			onDone(nil)
		}
		return nil
	}
	next := s.epoch + 1
	job := s.spare
	s.spare = nil
	if job == nil {
		job = &persistJob{dir: s.dir}
	}
	job.reset()
	job.epoch = next
	job.noFlip = s.noFlip
	job.keepOld = s.keepOld
	job.onDone = onDone
	sort.Ints(s.dirtyList)
	for _, ci := range s.dirtyList {
		buf := s.serializeDataChunk(job.grab(), ci, next)
		job.files = append(job.files, jobFile{path: s.chunkPath(kindData, ci, next), data: buf})
	}
	wroteState := s.stateDirty
	if wroteState {
		buf := s.serializeStateChunk(job.grab(), next)
		job.files = append(job.files, jobFile{path: s.chunkPath(kindState, 0, next), data: buf})
	}
	// The GC list uses the pre-advance chunk epochs, exactly like the
	// synchronous barrier's post-flip sweep.
	if !job.noFlip && !job.keepOld {
		for _, ci := range s.dirtyList {
			if old := s.chunkEpoch[ci]; old != 0 && old != next {
				job.gc = append(job.gc, s.chunkPath(kindData, ci, old))
			}
		}
		if wroteState && s.stateEpoch != 0 && s.stateEpoch != next {
			job.gc = append(job.gc, s.chunkPath(kindState, 0, s.stateEpoch))
		}
	}
	// Advance the in-memory bookkeeping at enqueue: the store's view is
	// epoch next, and the next group accumulates dirt against it. A job
	// failure latches s.failed, so a diverged view is never persisted.
	for _, ci := range s.dirtyList {
		s.chunkEpoch[ci] = next
		s.dirty[ci] = false
	}
	if wroteState {
		s.stateEpoch = next
	}
	s.dirtyList = s.dirtyList[:0]
	s.stateDirty = false
	s.epoch = next
	if s.jobs == nil {
		s.jobs = make(chan *persistJob)
		go persistWorker(s.jobs)
	}
	s.inFlight = job
	s.jobs <- job
	return nil
}

// persistWorker drains barrier jobs in order. The channel send/receive
// pair orders every job field before the worker reads it, and j.err
// before close(j.done).
func persistWorker(jobs <-chan *persistJob) {
	for j := range jobs {
		j.err = j.run()
		if j.onDone != nil {
			j.onDone(j.err)
		}
		close(j.done)
	}
}

// run is the worker half of the barrier: identical ordering discipline
// to Persist, over the job's pre-serialized files.
func (j *persistJob) run() error {
	if err := j.writeFiles(); err != nil {
		return err
	}
	if err := syncDir(filepath.Join(j.dir, "chunks")); err != nil {
		return err
	}
	if j.noFlip {
		return nil
	}
	if err := flipVersionAt(filepath.Join(j.dir, "version"), j.epoch); err != nil {
		return err
	}
	if !j.keepOld {
		for _, p := range j.gc {
			os.Remove(p)
		}
	}
	return nil
}

// writeFiles lands every chunk file of the epoch, each fsynced. The
// barrier only orders the version flip AFTER the full set is durable —
// within the set the writes are independent, so a large group's files
// fan out across a few goroutines to overlap their fsync latencies.
func (j *persistJob) writeFiles() error {
	if len(j.files) < 4 {
		for _, f := range j.files {
			if err := writeFileSync(f.path, f.data); err != nil {
				return err
			}
		}
		return nil
	}
	workers := 8
	if workers > len(j.files) {
		workers = len(j.files)
	}
	var next atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(j.files) {
					errs <- nil
					return
				}
				f := j.files[i]
				if err := writeFileSync(f.path, f.data); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// chunkPath builds the chunk filename into the reusable name buffer.
func (s *Store) chunkPath(kind byte, idx int, epoch uint64) string {
	b := s.name[:0]
	b = append(b, s.dir...)
	b = append(b, "/chunks/"...)
	if kind == kindData {
		b = append(b, 'd')
		b = strconv.AppendInt(b, int64(idx), 10)
	} else {
		b = append(b, 's')
	}
	b = append(b, '-')
	b = strconv.AppendUint(b, epoch, 10)
	s.name = b
	return string(b)
}

// bucketRange returns chunk ci's bucket span [lo, hi).
func (s *Store) bucketRange(ci int) (lo, hi int) {
	lo = ci * chunkBuckets
	hi = lo + chunkBuckets
	if n := int(s.tree.Buckets()); hi > n {
		hi = n
	}
	return lo, hi
}

func (s *Store) chunkHeader(buf []byte, kind byte, idx int, epoch uint64) []byte {
	buf = append(buf, chunkMagic...)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return buf
}

// serializeDataChunk appends chunk ci's complete file image (header,
// slots, CRC) to buf — the single source of the on-disk chunk format
// for both the synchronous and the group barrier.
func (s *Store) serializeDataChunk(buf []byte, ci int, epoch uint64) []byte {
	buf = s.chunkHeader(buf, kindData, ci, epoch)
	lo, hi := s.bucketRange(ci)
	for b := lo; b < hi; b++ {
		for z := 0; z < s.tree.Z; z++ {
			sl := s.slots[b*s.tree.Z+z]
			buf = binary.LittleEndian.AppendUint64(buf, sl.IV1)
			buf = binary.LittleEndian.AppendUint64(buf, sl.IV2)
			buf = append(buf, sl.SealedHeader...)
			buf = append(buf, sl.SealedData...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// serializeStateChunk appends the state chunk's complete file image.
func (s *Store) serializeStateChunk(buf []byte, epoch uint64) []byte {
	buf = s.chunkHeader(buf, kindState, 0, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, s.verSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.root)))
	buf = append(buf, s.root...)
	for _, l := range s.leaves {
		buf = binary.LittleEndian.AppendUint32(buf, l)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

func (s *Store) writeDataChunk(ci int, epoch uint64) error {
	s.buf = s.serializeDataChunk(s.buf[:0], ci, epoch)
	return writeFileSync(s.chunkPath(kindData, ci, epoch), s.buf)
}

func (s *Store) writeStateChunk(epoch uint64) error {
	s.buf = s.serializeStateChunk(s.buf[:0], epoch)
	return writeFileSync(s.chunkPath(kindState, 0, epoch), s.buf)
}

func writeFileSync(path string, content []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flipVersion commits epoch: one fixed-offset record write (alternating
// between the two slots so a torn write can only damage the record being
// written, never the previously committed one), then fsync.
func (s *Store) flipVersion(epoch uint64) error {
	return flipVersionAt(filepath.Join(s.dir, "version"), epoch)
}

func flipVersionAt(path string, epoch uint64) error {
	var rec [verRecSize]byte
	copy(rec[:], verMagic)
	binary.LittleEndian.PutUint64(rec[4:], epoch)
	binary.LittleEndian.PutUint32(rec[12:], crc32.Checksum(rec[:12], castagnoli))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(rec[:], int64(epoch%2)*verRecSize); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMeta(dir string, g oram.StoreGeometry) error {
	buf := []byte(metaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, formatVer)
	buf = binary.LittleEndian.AppendUint64(buf, g.Scheme)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Levels))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Z))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.BlockBytes))
	buf = binary.LittleEndian.AppendUint64(buf, g.NumBlocks)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	tmp := filepath.Join(dir, "meta.tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err == nil {
		f.Sync()
		f.Close()
	}
	return os.Rename(tmp, filepath.Join(dir, "meta"))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// parseChunkName decodes a chunk filename ("d<i>-<e>" or "s-<e>").
func parseChunkName(name string) (kind byte, idx int, epoch uint64, ok bool) {
	dash := strings.IndexByte(name, '-')
	if dash < 1 {
		return 0, 0, 0, false
	}
	e, err := strconv.ParseUint(name[dash+1:], 10, 64)
	if err != nil || e == 0 {
		return 0, 0, 0, false
	}
	switch name[0] {
	case 'd':
		i, err := strconv.Atoi(name[1:dash])
		if err != nil || i < 0 {
			return 0, 0, 0, false
		}
		return kindData, i, e, true
	case 's':
		if dash != 1 {
			return 0, 0, 0, false
		}
		return kindState, 0, e, true
	}
	return 0, 0, 0, false
}
