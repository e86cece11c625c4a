package xdr

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzXDRRoundTrip drives the full encode → decode → re-encode cycle
// over fuzzer-chosen field values, checking three properties at once:
// values survive the round trip, the zero-copy decode path (Decoder
// reused via Reset, OpaqueRef/RawRef views) agrees byte
// for byte with the copying path, and re-encoding the decoded values
// reproduces the original wire image. Aliasing bugs in the zero-copy
// path — views with the wrong bounds, padding miscounted, state leaking
// across Reset — surface as mismatches here. The blob also goes out as a
// split image's tail (Codec.Tail), its pad carried apart, which must be
// the same message.
func FuzzXDRRoundTrip(f *testing.F) {
	f.Add(uint32(42), int64(-7), "name.c", []byte{1, 2, 3}, []byte{9, 8, 7, 6}, true)
	f.Add(uint32(0), int64(0), "", []byte{}, []byte{}, false)
	f.Add(uint32(0xffffffff), int64(1<<62), "日本語", bytes.Repeat([]byte{0xab}, 8192), []byte{0}, true)
	// Split-image seeds: blobs that go out as a tail.
	f.Add(uint32(6), int64(8192), "", []byte{1, 2, 3, 4}, []byte{}, false)
	f.Add(uint32(6), int64(0), "read", bytes.Repeat([]byte{0x5a}, 4096), []byte{}, true)
	// Unaligned tails, sent without their pad.
	for _, n := range []int{1, 3, 4097, 8191} {
		f.Add(uint32(6), int64(n), "", bytes.Repeat([]byte{0x3c}, n), []byte{}, false)
	}
	f.Fuzz(func(t *testing.T, a uint32, b int64, s string, blob, tail []byte, flag bool) {
		e := NewEncoder()
		e.Uint32(a)
		e.Int64(b)
		e.String(s)
		e.Opaque(blob)
		e.Bool(flag)
		e.Raw(tail)
		wire := e.Bytes()

		// Copying decode.
		d := NewDecoder(wire)
		ga, gb, gs := d.Uint32(), d.Int64(), d.String()
		gblob := d.Opaque()
		gflag := d.Bool()
		graw := d.Raw()
		if d.Err() != nil {
			t.Fatalf("decode error on self-encoded message: %v", d.Err())
		}
		if ga != a || gb != b || gs != s || !bytes.Equal(gblob, blob) || gflag != flag ||
			!bytes.Equal(graw, tail) {
			t.Fatal("copying decode round trip mismatch")
		}

		// Zero-copy decode must see identical bytes.
		var z Decoder
		z.Reset(wire)
		if z.Uint32() != a || z.Int64() != b || z.String() != s {
			t.Fatal("zero-copy scalar mismatch")
		}
		if !bytes.Equal(z.OpaqueRef(), blob) {
			t.Fatal("OpaqueRef view mismatch")
		}
		if z.Bool() != flag {
			t.Fatal("zero-copy bool mismatch")
		}
		if !bytes.Equal(z.RawRef(), tail) {
			t.Fatal("RawRef view mismatch")
		}
		if z.Err() != nil || z.Remaining() != 0 {
			t.Fatalf("zero-copy decode err=%v remaining=%d", z.Err(), z.Remaining())
		}

		// Re-encode from the decoded values: byte-identical wire.
		r := GetEncoder()
		defer r.Release()
		r.Uint32(ga)
		r.Int64(gb)
		r.String(gs)
		r.Opaque(gblob)
		r.Bool(gflag)
		r.Raw(graw)
		if !bytes.Equal(r.Bytes(), wire) {
			t.Fatal("re-encode differs from original wire image")
		}

		// The blob as a split image's tail: the tail is the blob itself
		// whenever it is non-empty, its pad is carried apart, and the
		// message on the wire, head‖tail‖pad, is the inline encoding.
		// The same value decodes from the two parts or the joined bytes,
		// and a tail a byte short or a byte long fails the decoder.
		inline := NewEncoder()
		inline.Uint32(a)
		inline.Opaque(blob)
		split := NewEncoder()
		split.Uint32(a)
		split.Codec().Tail(&blob)
		head, tl := split.Image()
		if (len(blob) > 0) != (tl != nil) || len(blob) > 0 && &tl[0] != &blob[0] {
			t.Fatalf("a %d-byte blob went out as a %d-byte tail; want the blob itself whenever it is non-empty", len(blob), len(tl))
		}
		if want := inline.Bytes(); !bytes.Equal(Join(head, tl), want) || split.Len() != len(want) ||
			WireLen(head, tl) != len(want) || !bytes.Equal(split.Bytes(), want) {
			t.Fatal("split image differs from the inline encoding")
		}
		for _, parts := range [][2][]byte{{head, tl}, {inline.Bytes(), nil}} {
			var got []byte
			var y Decoder
			y.ResetTail(parts[0], parts[1])
			y.Uint32()
			if y.Codec().Tail(&got); y.Err() != nil || !bytes.Equal(got, blob) {
				t.Fatalf("Tail decode of a %d+%d-byte image: %v", len(parts[0]), len(parts[1]), y.Err())
			}
		}
		if tl == nil {
			return
		}
		for _, bad := range [][]byte{tl[:len(tl)-1], append(tl[:len(tl):len(tl)], 0)} {
			var got []byte
			var y Decoder
			y.ResetTail(head, bad)
			y.Uint32()
			if y.Codec().Tail(&got); !errors.Is(y.Err(), ErrShortBuffer) || got != nil {
				t.Fatalf("a %d-byte tail for a %d-byte item decoded %d bytes, err %v; want ErrShortBuffer and nothing", len(bad), len(tl), len(got), y.Err())
			}
		}
	})
}

// FuzzDecodeGarbage feeds arbitrary bytes to a fixed decode schedule:
// no input may panic or read out of bounds, in either the copying or the
// zero-copy path.
func FuzzDecodeGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	e := NewEncoder()
	e.Uint32(3)
	e.Opaque([]byte("abc"))
	f.Add(e.Bytes())
	// Split-image seeds: a length word, then the tail — agreeing, short,
	// and long.
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	// An unaligned item: its tail exactly, and with the pad it is sent
	// without.
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, garbage []byte) {
		d := NewDecoder(garbage)
		d.Uint32()
		d.Opaque()
		_ = d.String()
		d.Uint64()
		d.Bool()

		var z Decoder
		z.Reset(garbage)
		z.Uint32()
		if v := z.OpaqueRef(); len(v) > len(garbage) {
			t.Fatal("OpaqueRef view larger than input")
		}
		_ = z.String()
		z.RawRef()
		if z.Remaining() < 0 {
			t.Fatal("negative remaining")
		}

		// The first word as a split image's head, the rest as its tail.
		h := min(len(garbage), 4)
		var y Decoder
		y.ResetTail(garbage[:h], garbage[h:])
		var v []byte
		if y.Codec().Tail(&v); len(v) > len(garbage)-h || (y.Err() != nil) != (v == nil) {
			t.Fatalf("Tail decoded %d bytes of a %d-byte tail, err %v", len(v), len(garbage)-h, y.Err())
		}
	})
}
