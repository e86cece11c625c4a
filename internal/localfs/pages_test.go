package localfs

import (
	"bytes"
	"math/rand"
	"testing"
)

// The store keeps a file as pages; these tests hold it to the semantics of
// one flat byte slice, the representation it replaced. An op sequence is a
// byte string, four bytes an op, so the seeded test and the fuzz target
// share one encoding.

// Op kinds, the first byte of an op modulo opKinds.
const (
	opWrite = iota
	opWriteFrozen
	opTruncate
	opCreate // Create over the existing name: truncate to zero
	opRead
	opHold // take a view and keep it, as a READ reply does, or check and drop one
	opKinds
)

// edges are the in-page deltas an offset is built from: page edges, one
// byte either side of them, and the middle.
var edges = []int64{0, 0, 1, -1, 100, -100, pageSize / 2, 8191}

// lengths straddle one and two pages; 0 extends a file without data.
var lengths = []int{0, 1, 5, 100, pageSize - 1, pageSize, pageSize, pageSize + 1, 2 * pageSize, 3*pageSize - 7}

// heldView is a view kept past later ops, with the bytes it read.
type heldView struct{ got, want []byte }

// runStoreOps applies the ops encoded in ops to one file and checks every
// read, the final contents and the page invariants against a flat model.
func runStoreOps(t *testing.T, ops []byte) {
	t.Helper()
	s, _ := newTestStore()
	a, err := s.Create(s.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	var holds []heldView
	// frozen keeps every buffer handed to WriteFrozen beside a copy: the
	// store must never write through one.
	var frozen [][2][]byte
	for i := 0; i+4 <= len(ops); i += 4 {
		kind, pg, edge, n := int(ops[i])%opKinds, int64(ops[i+1]%8), edges[int(ops[i+2])%len(edges)], lengths[int(ops[i+3])%len(lengths)]
		off := max(pg*pageSize+edge, 0)
		switch kind {
		case opWrite, opWriteFrozen:
			data := bytes.Repeat([]byte{byte(i/4) + 1}, n)
			if kind == opWrite {
				_, err = s.WriteAt(a.Ino, off, data)
				clear(data) // WriteAt copied: the caller may reuse its buffer
			} else {
				_, err = s.WriteFrozen(a.Ino, off, data)
				frozen = append(frozen, [2][]byte{data, bytes.Clone(data)})
			}
			if end := off + int64(n); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], bytes.Repeat([]byte{byte(i/4) + 1}, n))
		case opTruncate:
			_, err = s.Truncate(a.Ino, off)
			if off <= int64(len(model)) {
				model = model[:off]
			} else {
				model = append(model, make([]byte, off-int64(len(model)))...)
			}
		case opCreate:
			var ca Attr
			if ca, err = s.Create(s.Root(), "f", 0o644); err == nil && ca.Ino != a.Ino {
				t.Fatalf("op %d: Create over the file made inode %d, want %d", i/4, ca.Ino, a.Ino)
			}
			model = model[:0]
		case opRead:
			var got []byte
			got, err = s.ReadAt(a.Ino, off, n)
			if want := window(model, off, n); !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("op %d: ReadAt(%d, %d) = %d bytes (capacity %d), want %d bytes of the model",
					i/4, off, n, len(got), cap(got), len(want))
			}
		case opHold:
			if len(holds) > 0 && ops[i+3]%2 == 1 {
				h := holds[len(holds)-1]
				holds = holds[:len(holds)-1]
				if !bytes.Equal(h.got, h.want) {
					t.Fatalf("op %d: a held view lost the bytes of its read instant", i/4)
				}
				break
			}
			var got []byte
			got, err = s.ReadAt(a.Ino, off, n)
			holds = append(holds, heldView{got, bytes.Clone(window(model, off, n))})
		}
		if err != nil {
			t.Fatalf("op %d (kind %d, off %d, len %d): %v", i/4, kind, off, n, err)
		}
	}
	for _, h := range holds {
		if !bytes.Equal(h.got, h.want) {
			t.Fatal("a held view lost the bytes of its read instant")
		}
	}
	for _, f := range frozen {
		if !bytes.Equal(f[0], f[1]) {
			t.Fatal("the store wrote through bytes handed to WriteFrozen")
		}
	}
	got, _ := s.ReadAt(a.Ino, 0, len(model)+pageSize)
	if attr, _ := s.GetAttr(a.Ino); attr.Size != int64(len(model)) || !bytes.Equal(got, model) {
		t.Fatalf("the file is %d bytes and differs from the model's %d", attr.Size, len(model))
	}
	in := s.inodes[a.Ino]
	if len(in.pages) != pagesFor(in.attr.Size) {
		t.Fatalf("%d pages for %d bytes", len(in.pages), in.attr.Size)
	}
	// Every page is a hole or whole, but the last may be short if it is
	// frozen and holds every byte of the file that falls in it (tail).
	tail := int(in.attr.Size - int64(len(in.pages)-1)*pageSize)
	for i, pg := range in.pages {
		if pg.b != nil && len(pg.b) != pageSize && (i < len(in.pages)-1 || !pg.frozen || len(pg.b) < tail) {
			t.Fatalf("page %d of %d is %d bytes (frozen %v), %d of them the file's", i, len(in.pages), len(pg.b), pg.frozen, tail)
		}
	}
	if len(in.pages) > 0 {
		if last := in.pages[len(in.pages)-1].bytes(); !bytes.Equal(last[tail:], zeroPage[tail:len(last)]) {
			t.Fatal("bytes past the end of the file are not zero")
		}
	}
}

// window is model's n bytes at off, as a read returns them.
func window(model []byte, off int64, n int) []byte {
	if off >= int64(len(model)) {
		return nil
	}
	return model[off:min(off+int64(n), int64(len(model)))]
}

// TestStoreMatchesFlatModel runs seeded random op sequences — writes
// copied and frozen, truncates that shrink and grow, creates over the file,
// reads and views kept across later ops, at offsets on and around page
// edges — against the flat model.
func TestStoreMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ops := make([]byte, 4*120)
		rand.New(rand.NewSource(seed)).Read(ops)
		runStoreOps(t, ops)
	}
}

// FuzzStoreMatchesFlatModel is the same check over any op encoding; its
// seeds run with the tier-1 tests.
func FuzzStoreMatchesFlatModel(f *testing.F) {
	for _, seed := range [][]byte{
		// A whole frozen page, a partial write into it, a read of it.
		{opWriteFrozen, 0, 0, 5, opWrite, 0, 4, 3, opRead, 0, 0, 5},
		// A view of a frozen page kept across a write, a shrink and a
		// grow, checked after.
		{opWriteFrozen, 1, 0, 8, opHold, 1, 0, 5, opWrite, 1, 2, 3, opTruncate, 1, 4, 0, opTruncate, 3, 0, 0, opHold, 0, 0, 1},
		// A sparse write past the end, then a read across the hole.
		{opWrite, 6, 3, 4, opRead, 0, 0, 8},
		// Shrink into a page, grow past it, and create over the file.
		{opWrite, 0, 0, 8, opTruncate, 0, 4, 0, opWrite, 2, 0, 1, opRead, 0, 0, 9, opCreate, 0, 0, 0, opRead, 0, 0, 5},
		// A short frozen WRITE at the end of the file, its view held
		// across a grow by a write into the same page, checked after.
		{opWriteFrozen, 0, 0, 3, opRead, 0, 0, 5, opHold, 0, 0, 5, opWrite, 0, 4, 3, opHold, 0, 0, 1, opRead, 0, 0, 5},
		// The same past the first page, held across a grow by truncate
		// into the next page, and a write past the end.
		{opWriteFrozen, 1, 0, 3, opHold, 1, 0, 5, opTruncate, 2, 4, 0, opRead, 0, 0, 9, opHold, 0, 0, 1, opWriteFrozen, 3, 0, 2, opWrite, 4, 0, 1},
		// A shrink into a short frozen page, then a grow within it, each
		// with a view held across it.
		{opWriteFrozen, 0, 0, 4, opHold, 0, 0, 5, opTruncate, 0, 4, 0, opHold, 0, 0, 5, opTruncate, 0, 6, 0, opRead, 0, 0, 5, opHold, 0, 0, 1, opHold, 0, 0, 1},
		// A short frozen WRITE that ends the file over older bytes, after
		// one that does not and is copied.
		{opWrite, 0, 0, 5, opTruncate, 0, 6, 0, opWriteFrozen, 0, 0, 3, opHold, 0, 0, 5, opWriteFrozen, 0, 0, 4, opHold, 0, 0, 1, opRead, 0, 0, 9},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*200 {
			return
		}
		runStoreOps(t, ops)
	})
}

// TestShortFrozenWriteIsThePage: a frozen WRITE that starts a page and
// ends the file, shorter than a page, becomes the file's last page by
// reference, frozen, at 0 allocations; so does one that extends the file
// from the start of its short last page, after a shrink that cut the page
// short.
func TestShortFrozenWriteIsThePage(t *testing.T) {
	s, _ := newTestStore()
	a, _ := s.Create(s.Root(), "f", 0o644)
	data, longer := bytes.Repeat([]byte{'s'}, 3000), bytes.Repeat([]byte{'l'}, 5000)
	s.WriteFrozen(a.Ino, pageSize, data) // sizes the page table
	if allocs := testing.AllocsPerRun(100, func() { s.WriteFrozen(a.Ino, pageSize, data) }); allocs != 0 {
		t.Errorf("a short frozen WRITE at the end of the file allocates %.0f objects, want 0", allocs)
	}
	if pg := s.inodes[a.Ino].pages[1]; len(pg.b) != len(data) || &pg.b[0] != &data[0] || !pg.frozen {
		t.Fatalf("the last page is %d bytes (frozen %v), not the WRITE's %d", len(pg.b), pg.frozen, len(data))
	}
	if got, _ := s.ReadAt(a.Ino, pageSize, pageSize); &got[0] != &data[0] || len(got) != len(data) {
		t.Fatal("a read of the last page is not a view of the WRITE's bytes")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Truncate(a.Ino, pageSize+int64(len(data)))
		s.WriteFrozen(a.Ino, pageSize, longer)
	}); allocs != 0 {
		t.Errorf("a shrink into a short page and a frozen WRITE extending it allocate %.0f objects, want 0", allocs)
	}
	if pg := s.inodes[a.Ino].pages[1]; &pg.b[0] != &longer[0] || !bytes.Equal(data, bytes.Repeat([]byte{'s'}, 3000)) {
		t.Fatal("the extending WRITE is not the last page, or the store wrote through the first")
	}
}
