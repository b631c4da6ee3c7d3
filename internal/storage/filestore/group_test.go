package filestore_test

// Group-barrier turnover tests: grouped epochs committed through
// PersistAsync must leave the directory in the states recovery expects —
// one live epoch per chunk after rapid turnover, strays from an
// interrupted group swept on recovery, and newest-wins resolution across
// the post-flip pre-GC window.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// chunkFiles lists the chunks/ directory grouped by chunk name prefix
// ("d0", "d1", "s"), values are the full file names.
func chunkFiles(t *testing.T, dir string) map[string][]string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`^(d\d+|s)-\d+$`)
	out := make(map[string][]string)
	for _, e := range ents {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			t.Fatalf("unexpected file in chunks/: %s", e.Name())
		}
		out[m[1]] = append(out[m[1]], e.Name())
	}
	return out
}

// fillStore seeds every slot so each chunk serializes at its full
// geometry size (the format has no notion of a never-written slot).
func fillStore(t *testing.T, st *filestore.Store, tag uint64) {
	t.Helper()
	tree := oram.NewTree(corruptGeom.Levels, corruptGeom.Z)
	for b := uint64(0); b < tree.Buckets(); b++ {
		for z := 0; z < corruptGeom.Z; z++ {
			st.SetSlot(b, z, mkSlot(tag))
		}
	}
}

// barrier forces the store to wait out any in-flight async job.
func barrier(t *testing.T, st *filestore.Store) {
	t.Helper()
	if err := st.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncEpochTurnoverGC: many rapid PersistAsync cycles must not
// accumulate superseded epochs — after the last barrier each touched
// chunk holds exactly one file, and recovery sees the final values.
func TestAsyncEpochTurnoverGC(t *testing.T) {
	dir := t.TempDir()
	st, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, 0)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		st.SetSlot(uint64(i%31), i%corruptGeom.Z, mkSlot(uint64(i)))
		st.SetVerSeq(uint32(i + 1))
		if err := st.PersistAsync(nil); err != nil {
			t.Fatal(err)
		}
	}
	barrier(t, st)
	files := chunkFiles(t, dir)
	for name, fs := range files {
		if len(fs) != 1 {
			t.Fatalf("chunk %s holds %d files after turnover: %v", name, len(fs), fs)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := filestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.VerSeq(); got != rounds {
		t.Fatalf("recovered verSeq %d, want %d", got, rounds)
	}
	want := mkSlot(rounds - 1)
	got := re.Slot((rounds-1)%31, (rounds-1)%corruptGeom.Z)
	if !bytes.Equal(got.SealedData, want.SealedData) {
		t.Fatalf("last async epoch's slot did not survive recovery")
	}
}

// TestAsyncInterruptedGroupStraySwept: a group whose chunk files landed
// but whose version record never flipped (the crash window PersistAsync
// shares with the serial barrier) must recover to the committed epoch,
// and the stray next-epoch files must be deleted by recovery's sweep.
func TestAsyncInterruptedGroupStraySwept(t *testing.T) {
	dir := t.TempDir()
	st, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, 1)
	st.SetSlot(0, 0, mkSlot(7))
	st.SetVerSeq(7)
	if err := st.PersistAsync(nil); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)

	// Interrupted group: content written and fsynced, flip never runs.
	st.TestingDisableVersionFlip()
	st.SetSlot(0, 0, mkSlot(8))
	st.SetSlot(8, 0, mkSlot(8))
	st.SetVerSeq(8)
	if err := st.PersistAsync(nil); err != nil {
		t.Fatal(err)
	}
	barrier(t, st)
	// Abandon the handle as a crash would (Close would re-persist). The
	// store's in-memory epoch already advanced to the unflipped epoch.
	straySuffix := fmt.Sprintf("-%d", st.Epoch())

	strays := 0
	for _, fs := range chunkFiles(t, dir) {
		for _, f := range fs {
			if strings.HasSuffix(f, straySuffix) {
				strays++
			}
		}
	}
	if strays == 0 {
		t.Fatal("sabotaged group left no stray files; the window under test is gone")
	}

	re, err := filestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.VerSeq(); got != 7 {
		t.Fatalf("recovered verSeq %d, want committed 7", got)
	}
	if got := re.Slot(0, 0); !bytes.Equal(got.SealedData, mkSlot(7).SealedData) {
		t.Fatal("recovery surfaced the unflipped epoch's data")
	}
	for _, fs := range chunkFiles(t, dir) {
		for _, f := range fs {
			if strings.HasSuffix(f, straySuffix) {
				t.Fatalf("stray %s survived recovery's sweep", f)
			}
		}
	}
}

// TestAsyncPreGCWindowNewestWins: with GC frozen (the post-flip crash
// window), every superseded epoch stays on disk; recovery must resolve
// each chunk newest-committed-wins and then sweep the leftovers.
func TestAsyncPreGCWindowNewestWins(t *testing.T) {
	dir := t.TempDir()
	st, err := filestore.Create(dir, corruptGeom)
	if err != nil {
		t.Fatal(err)
	}
	st.TestingKeepSuperseded()
	fillStore(t, st, 2)
	for i := 0; i < 5; i++ {
		st.SetSlot(0, 0, mkSlot(uint64(100+i)))
		st.SetVerSeq(uint32(100 + i))
		if err := st.PersistAsync(nil); err != nil {
			t.Fatal(err)
		}
	}
	barrier(t, st)
	if n := len(chunkFiles(t, dir)["d0"]); n < 3 {
		t.Fatalf("GC freeze kept only %d d0 epochs; window under test is gone", n)
	}

	re, err := filestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.VerSeq(); got != 104 {
		t.Fatalf("recovered verSeq %d, want newest committed 104", got)
	}
	if got := re.Slot(0, 0); !bytes.Equal(got.SealedData, mkSlot(104).SealedData) {
		t.Fatal("recovery did not resolve the pre-GC window newest-wins")
	}
	if n := len(chunkFiles(t, dir)["d0"]); n != 1 {
		t.Fatalf("recovery left %d d0 epochs, want 1", n)
	}
}
