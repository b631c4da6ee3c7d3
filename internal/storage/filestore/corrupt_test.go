package filestore_test

// Corruption-table tests: each case builds a known two-epoch store,
// damages the directory the way a torn write, a bad sector, or a
// tampering actor would, and pins down recovery's obligation — recover
// to a committed state, or refuse with the right typed error. The one
// outcome that must never appear is the silent one: opening cleanly on
// top of damage, or quietly substituting stale data for a committed
// chunk.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// Two-chunk geometry: 4 levels = 15 buckets = chunks d0 (buckets 0-7)
// and d1 (buckets 8-14).
var corruptGeom = oram.StoreGeometry{Levels: 4, Z: 4, BlockBytes: 16, NumBlocks: 10}

// mkSlot builds a fully-sized sealed slot whose every byte is derived
// from tag, so a recovered slot identifies which epoch it came from.
func mkSlot(tag uint64) oram.Slot {
	hdr := make([]byte, 16)
	data := make([]byte, corruptGeom.BlockBytes)
	for i := range hdr {
		hdr[i] = byte(tag)
	}
	for i := range data {
		data[i] = byte(tag + 1)
	}
	return oram.Slot{IV1: tag, IV2: tag ^ 0xffff, SealedHeader: hdr, SealedData: data}
}

// buildTwoEpochStore creates a store and commits two epochs:
//
//	epoch 1: every slot = mkSlot(1), verSeq 1, leaf[3] = 2
//	epoch 2: slots (0,0) and (8,0) = mkSlot(2), verSeq 2, leaf[3] = 5
//
// keepOld leaves epoch-1 files on disk (the post-flip, pre-GC crash
// window), which the torn-version cases need as their fallback target.
func buildTwoEpochStore(t *testing.T, keepOld bool) string {
	t.Helper()
	dir := t.TempDir()
	st, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatal(err)
	}
	if keepOld {
		st.TestingKeepSuperseded()
	}
	tree := oram.NewTree(corruptGeom.Levels, corruptGeom.Z)
	for b := uint64(0); b < tree.Buckets(); b++ {
		for z := 0; z < corruptGeom.Z; z++ {
			st.SetSlot(b, z, mkSlot(1))
		}
	}
	st.SetVerSeq(1)
	st.SetLeaf(3, 2)
	if err := st.Persist(); err != nil {
		t.Fatal(err)
	}
	st.SetSlot(0, 0, mkSlot(2))
	st.SetSlot(8, 0, mkSlot(2))
	st.SetVerSeq(2)
	st.SetLeaf(3, 5)
	if err := st.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func damageFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionTable(t *testing.T) {
	cases := []struct {
		name    string
		keepOld bool
		damage  func(t *testing.T, dir string)
		wantErr error // nil = Open must succeed
		check   func(t *testing.T, st *filestore.Store)
	}{
		{
			// Baseline: the pristine two-epoch store opens at epoch 2.
			name: "pristine",
			check: func(t *testing.T, st *filestore.Store) {
				expectEpochTwo(t, st)
			},
		},
		{
			// A committed chunk cut short (torn at the media level) must
			// refuse, not load a half-image.
			name: "truncated data chunk",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "chunks", "d1-2"), func(raw []byte) []byte {
					return raw[:len(raw)/2]
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			name: "truncated state chunk",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "chunks", "s-2"), func(raw []byte) []byte {
					return raw[:len(raw)-5]
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// A single flipped bit anywhere in a committed chunk must trip
			// the CRC32-C.
			name: "bit-flipped chunk",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "chunks", "d0-2"), func(raw []byte) []byte {
					raw[len(raw)/3] ^= 0x10
					return raw
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// A committed chunk vanishing entirely (the version record
			// promises d0 at epoch ≤ 2, no file delivers) must refuse —
			// with GC on there is no older epoch to fall back to, and
			// falling back would be exactly the stale-silent failure.
			name: "missing committed chunk",
			damage: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "chunks", "d0-2")); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// The crash the dual-slot layout exists for: the epoch-2 record
			// (slot 0, since 2%2=0) torn mid-write. The epoch-1 record in
			// the other slot still commits epoch 1, and with the pre-GC
			// window frozen the epoch-1 files are there to honor it.
			name:    "torn version record falls back to prior epoch",
			keepOld: true,
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "version"), func(raw []byte) []byte {
					for i := 0; i < 64; i++ {
						raw[i] = byte(0xa5 ^ i)
					}
					return raw
				})
			},
			check: func(t *testing.T, st *filestore.Store) {
				if st.Epoch() != 1 || st.VerSeq() != 1 {
					t.Fatalf("epoch %d verSeq %d, want the epoch-1 fallback", st.Epoch(), st.VerSeq())
				}
				if got := st.Slot(0, 0); got.IV1 != 1 {
					t.Fatalf("slot (0,0) IV1 = %d, want the epoch-1 value 1", got.IV1)
				}
				if st.Leaf(3) != 2 {
					t.Fatalf("leaf[3] = %d, want the epoch-1 value 2", st.Leaf(3))
				}
			},
		},
		{
			// Same torn record WITHOUT the pre-GC window: the epoch-1
			// record in the other slot is still valid, but the epoch-1
			// chunk files it promises were GCed at the flip. Recovery must
			// refuse rather than stitch epoch-2 chunks under an epoch-1
			// commit.
			name: "torn version record with GCed prior epoch",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "version"), func(raw []byte) []byte {
					for i := 0; i < 64; i++ {
						raw[i] = 0xff
					}
					return raw
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// A valid-looking record sitting in the wrong slot (epoch 2
			// belongs at slot 0) is not something the write protocol can
			// produce — duplicate/misplaced records are treated as damage.
			name: "duplicate version record in wrong slot",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "version"), func(raw []byte) []byte {
					copy(raw[64:128], raw[0:64])
					return raw
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// Both records destroyed while committed (epoch ≥ 2) chunks
			// remain: the store WAS committed, so this is corruption — the
			// one thing it must not be mistaken for is ErrNoStore, which
			// would invite Create to wipe the evidence.
			name: "version file zeroed with committed chunks present",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "version"), func(raw []byte) []byte {
					return make([]byte, len(raw))
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			// Uncommitted leftovers of an interrupted persist (epoch 3
			// never flipped) must be ignored and cleaned, not loaded.
			name: "stray future-epoch chunk ignored and removed",
			damage: func(t *testing.T, dir string) {
				p := filepath.Join(dir, "chunks", "d0-3")
				if err := os.WriteFile(p, []byte("torn garbage from a dying persist"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *filestore.Store) {
				expectEpochTwo(t, st)
				if _, err := os.Stat(filepath.Join(st.Dir(), "chunks", "d0-3")); !os.IsNotExist(err) {
					t.Fatalf("uncommitted d0-3 survived recovery (stat err %v)", err)
				}
			},
		},
		{
			// Newest-wins with both epochs on disk: the pre-GC crash window
			// is legal state, and recovery must pick epoch 2's files for
			// the chunks it rewrote and epoch 1's for the rest.
			name:    "post-flip pre-GC window loads newest epoch",
			keepOld: true,
			check: func(t *testing.T, st *filestore.Store) {
				expectEpochTwo(t, st)
				// ...and the superseded epoch-1 files are retired.
				for _, name := range []string{"d0-1", "d1-1", "s-1"} {
					if _, err := os.Stat(filepath.Join(st.Dir(), "chunks", name)); !os.IsNotExist(err) {
						t.Fatalf("superseded %s survived recovery (stat err %v)", name, err)
					}
				}
			},
		},
		{
			// The state chunk's root length is reserved and always 0 (the
			// Merkle root it once carried is retired). A chunk that
			// carries a root under a valid CRC is refused, not skipped.
			name: "state chunk carries a retired root",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "chunks", "s-2"), withRoot)
			},
			wantErr: filestore.ErrCorrupted,
		},
		{
			name: "meta bit-flip",
			damage: func(t *testing.T, dir string) {
				damageFile(t, filepath.Join(dir, "meta"), func(raw []byte) []byte {
					raw[9] ^= 0x01
					return raw
				})
			},
			wantErr: filestore.ErrCorrupted,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := buildTwoEpochStore(t, tc.keepOld)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			// Probe, Open's read-only first step, never contradicts it:
			// what it refuses Open refuses alike.
			_, _, perr := filestore.Probe(dir)
			st, err := filestore.Open(dir)
			if perr != nil && (err == nil || errors.Is(perr, filestore.ErrNoStore) != errors.Is(err, filestore.ErrNoStore)) {
				t.Fatalf("Probe: %v, but Open: %v", perr, err)
			}
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("Open succeeded over %s damage", tc.name)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Open: %v, want %v", err, tc.wantErr)
				}
				// Damage must also stop Create from quietly rebuilding on
				// top of the evidence.
				if errors.Is(tc.wantErr, filestore.ErrCorrupted) {
					if _, cerr := filestore.Create(dir, corruptGeom); cerr == nil {
						t.Fatal("Create clobbered a corrupted store")
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if tc.check != nil {
				tc.check(t, st)
			}
			st.Close()
		})
	}
}

// withRoot rewrites a state chunk file to carry a 32-byte root behind
// its seal-version cursor, under a recomputed CRC32-C: header (17
// bytes), verSeq, root length, root, leaves, CRC.
func withRoot(raw []byte) []byte {
	const rootAt = 17 + 4
	out := append([]byte(nil), raw[:rootAt]...)
	out = binary.LittleEndian.AppendUint32(out, 32)
	out = append(out, make([]byte, 32)...)
	out = append(out, raw[rootAt+4:len(raw)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

func expectEpochTwo(t *testing.T, st *filestore.Store) {
	t.Helper()
	if st.Epoch() != 2 || st.VerSeq() != 2 {
		t.Fatalf("epoch %d verSeq %d, want committed epoch 2", st.Epoch(), st.VerSeq())
	}
	if got := st.Slot(0, 0); got.IV1 != 2 {
		t.Fatalf("slot (0,0) IV1 = %d, want the epoch-2 value 2", got.IV1)
	}
	if got := st.Slot(0, 1); got.IV1 != 1 {
		t.Fatalf("slot (0,1) IV1 = %d, want the untouched epoch-1 value 1", got.IV1)
	}
	if got := st.Slot(8, 0); got.IV1 != 2 {
		t.Fatalf("slot (8,0) IV1 = %d, want the epoch-2 value 2", got.IV1)
	}
	if st.Leaf(3) != 5 {
		t.Fatalf("leaf[3] = %d, want the epoch-2 value 5", st.Leaf(3))
	}
}

// TestFreshDirIsNoStore pins the other side of the ErrNoStore /
// ErrCorrupted boundary: an empty dir, and a Create killed before its
// first flip (epoch-1 files, all-zero version file), are both safely
// recreatable.
func TestFreshDirIsNoStore(t *testing.T) {
	if _, err := filestore.Open(t.TempDir()); !errors.Is(err, filestore.ErrNoStore) {
		t.Fatalf("Open(empty dir): %v, want ErrNoStore", err)
	}

	// Simulate a Create + first Persist killed just before flipVersion:
	// build a one-epoch store, then zero the version file. maxChunkEpoch
	// is 1, which proves nothing was ever committed.
	dir := t.TempDir()
	st, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatal(err)
	}
	tree := oram.NewTree(corruptGeom.Levels, corruptGeom.Z)
	for b := uint64(0); b < tree.Buckets(); b++ {
		for z := 0; z < corruptGeom.Z; z++ {
			st.SetSlot(b, z, mkSlot(1))
		}
	}
	if err := st.Persist(); err != nil {
		t.Fatal(err)
	}
	damageFile(t, filepath.Join(dir, "version"), func(raw []byte) []byte {
		return make([]byte, len(raw))
	})
	if _, err := filestore.Open(dir); !errors.Is(err, filestore.ErrNoStore) {
		t.Fatalf("Open(interrupted create): %v, want ErrNoStore", err)
	}
	if _, _, err := filestore.Probe(dir); !errors.Is(err, filestore.ErrNoStore) {
		t.Fatalf("Probe(interrupted create): %v, want ErrNoStore", err)
	}
	// ...and Create is allowed to start over on top of it.
	st2, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatalf("Create over interrupted create: %v", err)
	}
	st2.Close()
}
