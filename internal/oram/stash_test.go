package oram

import (
	"testing"
	"testing/quick"
)

func TestStashPutGetRemove(t *testing.T) {
	s := NewStash(10)
	b := &StashBlock{Addr: 3, Leaf: 1, Data: []byte("x")}
	s.Put(b)
	if got := s.Get(3); got != b {
		t.Fatal("Get did not return the stored block")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Get(3) != nil || s.Len() != 0 {
		t.Fatal("Remove failed")
	}
	s.Remove(3) // idempotent
}

func TestStashPutReplaces(t *testing.T) {
	s := NewStash(10)
	s.Put(&StashBlock{Addr: 1, Leaf: 1})
	s.Put(&StashBlock{Addr: 1, Leaf: 2})
	if s.Len() != 1 || s.Get(1).Leaf != 2 {
		t.Fatal("Put should replace the live block")
	}
}

func TestStashBackupsSeparateFromLive(t *testing.T) {
	s := NewStash(10)
	live := &StashBlock{Addr: 5, Leaf: 1}
	bak := &StashBlock{Addr: 5, Leaf: 2, Backup: true, BackupLeaf: 1}
	s.Put(live)
	s.PutBackup(bak)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (live + backup share an address)", s.Len())
	}
	if s.Get(5) != live {
		t.Fatal("Get must return the live block, not the backup")
	}
	if len(s.Backups()) != 1 || s.Backups()[0] != bak {
		t.Fatal("Backups() wrong")
	}
	s.RemoveBackup(bak)
	if len(s.Backups()) != 0 || s.Get(5) != live {
		t.Fatal("RemoveBackup must not disturb the live block")
	}
	s.RemoveBackup(bak) // idempotent
}

func TestStashOverflowDetection(t *testing.T) {
	s := NewStash(2)
	s.Put(&StashBlock{Addr: 1})
	s.Put(&StashBlock{Addr: 2})
	if s.Overflowed() {
		t.Fatal("at capacity is not overflow")
	}
	s.PutBackup(&StashBlock{Addr: 1, Backup: true})
	if !s.Overflowed() {
		t.Fatal("backup pushed past capacity; Overflowed should report it")
	}
}

func TestStashRejectsMisuse(t *testing.T) {
	s := NewStash(4)
	for name, f := range map[string]func(){
		"Put backup":     func() { s.Put(&StashBlock{Addr: 1, Backup: true}) },
		"Put dummy":      func() { s.Put(&StashBlock{Addr: DummyAddr}) },
		"PutBackup live": func() { s.PutBackup(&StashBlock{Addr: 1}) },
		"zero capacity":  func() { NewStash(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStashClear(t *testing.T) {
	s := NewStash(8)
	s.Put(&StashBlock{Addr: 1})
	s.PutBackup(&StashBlock{Addr: 1, Backup: true})
	s.Reset()
	if s.Len() != 0 || s.Get(1) != nil || len(s.Backups()) != 0 {
		t.Fatal("Reset left residue")
	}
	s.Put(&StashBlock{Addr: 2}) // usable afterwards
	if s.Len() != 1 {
		t.Fatal("stash unusable after Reset")
	}
}

func TestStashLiveSnapshot(t *testing.T) {
	s := NewStash(8)
	for i := Addr(0); i < 5; i++ {
		s.Put(&StashBlock{Addr: i})
	}
	live := s.Live()
	if len(live) != 5 {
		t.Fatalf("Live returned %d blocks", len(live))
	}
	seen := map[Addr]bool{}
	for _, b := range live {
		seen[b.Addr] = true
	}
	for i := Addr(0); i < 5; i++ {
		if !seen[i] {
			t.Fatalf("Live missing addr %d", i)
		}
	}
}

func TestStashLenProperty(t *testing.T) {
	// Property: Len always equals live-count + backup-count under any
	// operation sequence.
	f := func(ops []uint8) bool {
		s := NewStash(1000)
		live := map[Addr]bool{}
		backups := 0
		for _, op := range ops {
			addr := Addr(op % 16)
			switch op % 3 {
			case 0:
				s.Put(&StashBlock{Addr: addr})
				live[addr] = true
			case 1:
				s.Remove(addr)
				delete(live, addr)
			case 2:
				s.PutBackup(&StashBlock{Addr: addr, Backup: true})
				backups++
			}
			if s.Len() != len(live)+backups {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTargetLeaf(t *testing.T) {
	if (&StashBlock{Leaf: 3}).TargetLeaf() != 3 {
		t.Fatal("live block target leaf")
	}
	if (&StashBlock{Leaf: 3, Backup: true, BackupLeaf: 7}).TargetLeaf() != 7 {
		t.Fatal("backup target leaf")
	}
}
