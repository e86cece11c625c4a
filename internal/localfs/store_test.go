package localfs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"spritelynfs/internal/sim"
)

func newTestStore() (*Store, *sim.Time) {
	now := new(sim.Time)
	return NewStore(func() sim.Time { return *now }, 4096), now
}

func TestCreateLookupReadWrite(t *testing.T) {
	s, _ := newTestStore()
	a, err := s.Create(s.Root(), "hello.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != TypeRegular || a.Size != 0 {
		t.Errorf("attr %+v", a)
	}
	if _, err := s.WriteAt(a.Ino, 0, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAt(a.Ino, 0, 100)
	if err != nil || string(got) != "hello world" {
		t.Errorf("read %q, %v", got, err)
	}
	la, err := s.Lookup(s.Root(), "hello.txt")
	if err != nil || la.Ino != a.Ino {
		t.Errorf("lookup %+v, %v", la, err)
	}
	if la.Size != 11 {
		t.Errorf("size %d", la.Size)
	}
}

func TestLookupMissing(t *testing.T) {
	s, _ := newTestStore()
	_, err := s.Lookup(s.Root(), "nope")
	if !errors.Is(err, ErrNoEnt) {
		t.Errorf("err = %v", err)
	}
}

func TestLookupDotAndDotDot(t *testing.T) {
	s, _ := newTestStore()
	d, _ := s.Mkdir(s.Root(), "sub", 0o755)
	if a, err := s.Lookup(d.Ino, "."); err != nil || a.Ino != d.Ino {
		t.Errorf("dot: %+v, %v", a, err)
	}
	if a, err := s.Lookup(d.Ino, ".."); err != nil || a.Ino != s.Root() {
		t.Errorf("dotdot: %+v, %v", a, err)
	}
}

func TestWriteExtendsAndOverwrites(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 5, []byte("world"))
	got, _ := s.ReadAt(a.Ino, 0, 10)
	want := append(make([]byte, 5), []byte("world")...)
	if !bytes.Equal(got, want) {
		t.Errorf("sparse write: %q", got)
	}
	s.WriteAt(a.Ino, 0, []byte("hello"))
	got, _ = s.ReadAt(a.Ino, 0, 10)
	if string(got) != "helloworld" {
		t.Errorf("overwrite: %q", got)
	}
}

func TestReadPastEOF(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, []byte("abc"))
	if got, err := s.ReadAt(a.Ino, 3, 10); err != nil || len(got) != 0 {
		t.Errorf("read at EOF: %q, %v", got, err)
	}
	if got, _ := s.ReadAt(a.Ino, 2, 10); string(got) != "c" {
		t.Errorf("partial read: %q", got)
	}
}

func TestCreateExistingTruncates(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, []byte("contents"))
	a2, err := s.Create(s.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Ino != a.Ino {
		t.Error("create of existing file allocated a new inode")
	}
	if a2.Size != 0 {
		t.Errorf("size after re-create %d, want 0", a2.Size)
	}
}

func TestCreateOverDirectoryFails(t *testing.T) {
	s, _ := newTestStore()
	s.Mkdir(s.Root(), "d", 0o755)
	if _, err := s.Create(s.Root(), "d", 0o644); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, make([]byte, 10000))
	removed, err := s.Remove(s.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if removed.Blocks != 3 { // 10000 bytes / 4096 = 3 blocks
		t.Errorf("removed %d blocks, want 3", removed.Blocks)
	}
	if _, err := s.Lookup(s.Root(), "f"); !errors.Is(err, ErrNoEnt) {
		t.Error("file still visible")
	}
	if _, err := s.GetAttr(a.Ino); !errors.Is(err, ErrStale) {
		t.Error("inode still accessible after unlink")
	}
}

func TestRemoveDirectoryFails(t *testing.T) {
	s, _ := newTestStore()
	s.Mkdir(s.Root(), "d", 0o755)
	if _, err := s.Remove(s.Root(), "d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v", err)
	}
}

func TestRmdir(t *testing.T) {
	s, _ := newTestStore()
	d, _ := s.Mkdir(s.Root(), "d", 0o755)
	s.Create(d.Ino, "f", 0o644)
	if err := s.Rmdir(s.Root(), "d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rmdir non-empty: %v", err)
	}
	s.Remove(d.Ino, "f")
	if err := s.Rmdir(s.Root(), "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(s.Root(), "d"); !errors.Is(err, ErrNoEnt) {
		t.Error("dir still visible")
	}
}

func TestRenameBasic(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "old", 0o644)
	s.WriteAt(a.Ino, 0, []byte("data"))
	d, _ := s.Mkdir(s.Root(), "sub", 0o755)
	if err := s.Rename(s.Root(), "old", d.Ino, "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(s.Root(), "old"); !errors.Is(err, ErrNoEnt) {
		t.Error("source still visible")
	}
	la, err := s.Lookup(d.Ino, "new")
	if err != nil || la.Ino != a.Ino {
		t.Errorf("dest lookup %+v, %v", la, err)
	}
}

func TestRenameReplacesExisting(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "src", 0o644)
	b, _ := s.Create(s.Root(), "dst", 0o644)
	if err := s.Rename(s.Root(), "src", s.Root(), "dst"); err != nil {
		t.Fatal(err)
	}
	la, _ := s.Lookup(s.Root(), "dst")
	if la.Ino != a.Ino {
		t.Error("dest not replaced")
	}
	if _, err := s.GetAttr(b.Ino); !errors.Is(err, ErrStale) {
		t.Error("replaced inode not freed")
	}
}

func TestTruncate(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, []byte("hello world"))
	na, err := s.Truncate(a.Ino, 5)
	if err != nil || na.Size != 5 {
		t.Fatalf("truncate: %+v, %v", na, err)
	}
	got, _ := s.ReadAt(a.Ino, 0, 100)
	if string(got) != "hello" {
		t.Errorf("after shrink: %q", got)
	}
	na, _ = s.Truncate(a.Ino, 8)
	got, _ = s.ReadAt(a.Ino, 0, 100)
	if !bytes.Equal(got, []byte("hello\x00\x00\x00")) {
		t.Errorf("after grow: %q", got)
	}
}

// TestAppendGrowthIsLinear appends 512 blocks of 8 KiB to one file: file
// data grows geometrically, so the store allocates a small multiple of the
// final size in all — not a fresh exact-size array per append, which
// copies the file 512 times over (~256× the final size).
func TestAppendGrowthIsLinear(t *testing.T) {
	const blocks, bs = 512, 8192
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	block := bytes.Repeat([]byte{0xa5}, bs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < blocks; i++ {
		if _, err := s.WriteAt(a.Ino, int64(i)*bs, block); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*blocks*bs); got > limit {
		t.Errorf("appending %d B in %d B steps allocated %d B, want <= %d", blocks*bs, bs, got, limit)
	}
	if na, _ := s.GetAttr(a.Ino); na.Size != blocks*bs {
		t.Errorf("size %d, want %d", na.Size, blocks*bs)
	}
}

// TestShrinkThenGrowExposesZeros covers the hazard geometric growth
// introduces: a shrink leaves the old bytes inside the capacity, and a
// later extension — by a write past the end or by Truncate — must expose
// zeros there, not the stale contents.
func TestShrinkThenGrowExposesZeros(t *testing.T) {
	for _, grow := range []struct {
		name string
		do   func(s *Store, ino uint64)
	}{
		{"WriteAt", func(s *Store, ino uint64) { s.WriteAt(ino, 8192, bytes.Repeat([]byte{0x5a}, 8192)) }},
		{"Truncate", func(s *Store, ino uint64) { s.Truncate(ino, 16384) }},
	} {
		s, _ := newTestStore()
		a, _ := s.Create(s.Root(), "f", 0o644)
		s.WriteAt(a.Ino, 0, bytes.Repeat([]byte{0xa5}, 16384))
		s.Truncate(a.Ino, 100)
		grow.do(s, a.Ino)
		got, err := s.ReadAt(a.Ino, 0, 16384)
		if err != nil || len(got) != 16384 {
			t.Fatalf("%s: read %d bytes, %v", grow.name, len(got), err)
		}
		if !bytes.Equal(got[:100], bytes.Repeat([]byte{0xa5}, 100)) {
			t.Errorf("%s: the kept prefix changed", grow.name)
		}
		if !bytes.Equal(got[100:8192], make([]byte, 8092)) {
			t.Errorf("%s: bytes 100-8191 are not zero after shrink-then-grow", grow.name)
		}
	}
}

// TestReadAtReturnsSnapshot pins ReadAt's result as the caller's own: the
// server reads at one instant and holds the bytes across the disk wait
// that follows, so a later write must not show through them, and writing
// into them must not reach the file.
func TestReadAtReturnsSnapshot(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, []byte("hello world"))
	got, _ := s.ReadAt(a.Ino, 0, 100)
	s.WriteAt(a.Ino, 0, []byte("HELLO"))
	if string(got) != "hello world" {
		t.Errorf("a write after the read changed its result: %q", got)
	}
	copy(got, "XXXXX")
	if again, _ := s.ReadAt(a.Ino, 0, 100); string(again) != "HELLO world" {
		t.Errorf("writing into a read result changed the file: %q", again)
	}
}

func TestMtimeAdvancesOnWrite(t *testing.T) {
	s, now := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	*now = sim.Time(10 * sim.Second)
	s.WriteAt(a.Ino, 0, []byte("x"))
	ga, _ := s.GetAttr(a.Ino)
	if ga.Mtime != sim.Time(10*sim.Second) {
		t.Errorf("mtime %v", ga.Mtime)
	}
}

func TestReaddirOrder(t *testing.T) {
	s, _ := newTestStore()
	names := []string{"c", "a", "b"}
	for _, n := range names {
		s.Create(s.Root(), n, 0o644)
	}
	ents, err := s.Readdir(s.Root())
	if err != nil || len(ents) != 3 {
		t.Fatalf("readdir %v, %v", ents, err)
	}
	for i, e := range ents {
		if e.Name != names[i] {
			t.Errorf("entry %d = %q, want creation order %q", i, e.Name, names[i])
		}
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s, _ := newTestStore()
	for _, name := range []string{"", ".", "..", "a/b", "nul\x00"} {
		if _, err := s.Create(s.Root(), name, 0o644); !errors.Is(err, ErrInval) {
			t.Errorf("Create(%q) err = %v, want ErrInval", name, err)
		}
	}
}

func TestGenerationsDistinct(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.Remove(s.Root(), "f")
	b, _ := s.Create(s.Root(), "f", 0o644)
	if a.Ino == b.Ino && a.Gen == b.Gen {
		t.Error("recreated file has identical (ino, gen); stale handles undetectable")
	}
}

func TestNlinkAccounting(t *testing.T) {
	s, _ := newTestStore()
	root, _ := s.GetAttr(s.Root())
	if root.Nlink != 2 {
		t.Errorf("fresh root nlink %d", root.Nlink)
	}
	s.Mkdir(s.Root(), "a", 0o755)
	s.Mkdir(s.Root(), "b", 0o755)
	root, _ = s.GetAttr(s.Root())
	if root.Nlink != 4 {
		t.Errorf("root nlink %d after two mkdirs, want 4", root.Nlink)
	}
	s.Rmdir(s.Root(), "a")
	root, _ = s.GetAttr(s.Root())
	if root.Nlink != 3 {
		t.Errorf("root nlink %d after rmdir, want 3", root.Nlink)
	}
}

// Property: a random sequence of creates/removes in one directory keeps
// Readdir consistent with the set of live names.
func TestQuickNamespaceConsistency(t *testing.T) {
	type op struct {
		Create bool
		Which  uint8
	}
	names := []string{"a", "b", "c", "d", "e"}
	f := func(ops []op) bool {
		s, _ := newTestStore()
		live := map[string]bool{}
		for _, o := range ops {
			n := names[int(o.Which)%len(names)]
			if o.Create {
				if _, err := s.Create(s.Root(), n, 0o644); err != nil {
					return false
				}
				live[n] = true
			} else {
				_, err := s.Remove(s.Root(), n)
				if live[n] != (err == nil) {
					return false
				}
				delete(live, n)
			}
		}
		ents, err := s.Readdir(s.Root())
		if err != nil || len(ents) != len(live) {
			return false
		}
		for _, e := range ents {
			if !live[e.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTotalBytes(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	s.WriteAt(a.Ino, 0, make([]byte, 1000))
	b, _ := s.Create(s.Root(), "g", 0o644)
	s.WriteAt(b.Ino, 0, make([]byte, 500))
	if tb := s.TotalBytes(); tb != 1500 {
		t.Errorf("TotalBytes = %d", tb)
	}
}

// Property: random WriteAt/Truncate sequences leave file contents equal
// to a plain byte-slice model.
func TestQuickFileContentModel(t *testing.T) {
	type op struct {
		Write bool
		Off   uint16
		Len   uint8
		Trunc uint16
		Byte  byte
	}
	f := func(ops []op) bool {
		s, _ := newTestStore()
		a, err := s.Create(s.Root(), "f", 0o644)
		if err != nil {
			return false
		}
		var model []byte
		for _, o := range ops {
			if o.Write {
				data := bytes.Repeat([]byte{o.Byte}, int(o.Len))
				if _, err := s.WriteAt(a.Ino, int64(o.Off), data); err != nil {
					return false
				}
				end := int(o.Off) + len(data)
				if end > len(model) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[o.Off:end], data)
			} else {
				size := int(o.Trunc) % 40000
				if _, err := s.Truncate(a.Ino, int64(size)); err != nil {
					return false
				}
				if size <= len(model) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}
			}
		}
		got, err := s.ReadAt(a.Ino, 0, len(model)+100)
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHardLinks(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "orig", 0o644)
	s.WriteAt(a.Ino, 0, []byte("shared bytes"))
	la, err := s.Link(s.Root(), "alias", a.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if la.Ino != a.Ino || la.Nlink != 2 {
		t.Errorf("link attr %+v", la)
	}
	// Content visible through both names.
	aliasAttr, _ := s.Lookup(s.Root(), "alias")
	got, _ := s.ReadAt(aliasAttr.Ino, 0, 100)
	if string(got) != "shared bytes" {
		t.Errorf("alias content %q", got)
	}
	// Removing one name keeps the inode alive.
	if _, err := s.Remove(s.Root(), "orig"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetAttr(a.Ino); err != nil {
		t.Error("inode freed while a link remains")
	}
	ga, _ := s.GetAttr(a.Ino)
	if ga.Nlink != 1 {
		t.Errorf("nlink %d after one unlink", ga.Nlink)
	}
	// Removing the last name frees it.
	if _, err := s.Remove(s.Root(), "alias"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetAttr(a.Ino); err == nil {
		t.Error("inode survives last unlink")
	}
}

func TestHardLinkRestrictions(t *testing.T) {
	s, _ := newTestStore()
	d, _ := s.Mkdir(s.Root(), "d", 0o755)
	if _, err := s.Link(s.Root(), "dlink", d.Ino); !errors.Is(err, ErrIsDir) {
		t.Errorf("hard link to directory: %v", err)
	}
	a, _ := s.Create(s.Root(), "f", 0o644)
	if _, err := s.Link(s.Root(), "f", a.Ino); !errors.Is(err, ErrExist) {
		t.Errorf("link over existing name: %v", err)
	}
}

func TestSymlinks(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "real", 0o644)
	_ = a
	la, err := s.Symlink(s.Root(), "sym", "real")
	if err != nil {
		t.Fatal(err)
	}
	if la.Type != TypeSymlink || la.Size != int64(len("real")) {
		t.Errorf("symlink attr %+v", la)
	}
	target, err := s.Readlink(la.Ino)
	if err != nil || target != "real" {
		t.Errorf("readlink %q, %v", target, err)
	}
	// Readlink of a non-symlink fails.
	if _, err := s.Readlink(a.Ino); !errors.Is(err, ErrInval) {
		t.Errorf("readlink of file: %v", err)
	}
	// Symlinks are removable.
	if _, err := s.Remove(s.Root(), "sym"); err != nil {
		t.Errorf("remove symlink: %v", err)
	}
}
