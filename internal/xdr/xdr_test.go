package xdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xdeadbeef)
	e.Uint64(math.MaxUint64)
	e.Int64(math.MinInt64)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("Uint32 = %x", v)
	}
	if v := d.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %x", v)
	}
	if v := d.Int64(); v != math.MinInt64 {
		t.Errorf("Int64 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool mismatch")
	}
	if d.Err() != nil {
		t.Errorf("err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

func TestOpaquePaddingAlignment(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder()
		data := bytes.Repeat([]byte{0xab}, n)
		e.Opaque(data)
		if e.Len()%4 != 0 {
			t.Errorf("n=%d: encoded length %d not 4-aligned", n, e.Len())
		}
		e.Uint32(7) // sentinel after padding
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		if !bytes.Equal(got, data) {
			t.Errorf("n=%d: roundtrip mismatch", n)
		}
		if v := d.Uint32(); v != 7 {
			t.Errorf("n=%d: sentinel %d, padding misaligned", n, v)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "/usr/tmp/st01234", "日本語 filename"} {
		e := NewEncoder()
		e.String(s)
		d := NewDecoder(e.Bytes())
		if got := d.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestShortBufferError(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	d.Uint32()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", d.Err())
	}
	// Error is sticky: further reads return zero values, same error.
	if d.Uint64() != 0 {
		t.Error("read after error returned nonzero")
	}
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Error("error not sticky")
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xffffffff) // absurd opaque length
	d := NewDecoder(e.Bytes())
	if d.Opaque() != nil {
		t.Error("decoded opaque with absurd length")
	}
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", d.Err())
	}
}

func TestOpaqueReturnedSliceIsCopy(t *testing.T) {
	e := NewEncoder()
	e.Opaque([]byte{1, 2, 3, 4})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Opaque()
	buf[4] = 99 // mutate underlying buffer after decode
	if got[0] != 1 {
		t.Error("decoded slice aliases the input buffer")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Error("reset did not clear buffer")
	}
	e.Uint32(2)
	d := NewDecoder(e.Bytes())
	if d.Uint32() != 2 {
		t.Error("encode after reset wrong")
	}
}

func TestQuickRoundTripMixed(t *testing.T) {
	f := func(a uint32, b int64, s string, blob []byte, flag bool) bool {
		e := NewEncoder()
		e.Uint32(a)
		e.Int64(b)
		e.String(s)
		e.Opaque(blob)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		if d.Uint32() != a || d.Int64() != b || d.String() != s {
			return false
		}
		got := d.Opaque()
		if len(got) != len(blob) || (len(blob) > 0 && !bytes.Equal(got, blob)) {
			return false
		}
		return d.Bool() == flag && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecoderNeverPanicsOnGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		// A fixed schedule of reads over arbitrary bytes must never
		// panic; errors are the acceptable outcome.
		d.Uint32()
		d.Opaque()
		_ = d.String()
		d.Uint64()
		d.Bool()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestZeroCopyRefsAliasBuffer(t *testing.T) {
	e := NewEncoder()
	e.Opaque([]byte{1, 2, 3, 4})
	e.Raw([]byte{9, 10})
	buf := e.Bytes()

	var d Decoder
	d.Reset(buf)
	op := d.OpaqueRef()
	raw := d.RawRef()
	if d.Err() != nil {
		t.Fatalf("err = %v", d.Err())
	}
	buf[4] = 99 // first opaque byte
	buf[8] = 97 // first raw byte
	if op[0] != 99 || raw[0] != 97 {
		t.Error("refs did not alias the input buffer (copied?)")
	}
}

func TestDecoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint32(7)
	var d Decoder
	d.Reset([]byte{0}) // short read poisons the decoder
	d.Uint32()
	if d.Err() == nil {
		t.Fatal("expected short-buffer error")
	}
	d.Reset(e.Bytes())
	if d.Err() != nil || d.Uint32() != 7 || d.Remaining() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSetBufferAppendsIntoCallerBuffer(t *testing.T) {
	scratch := make([]byte, 0, 64)
	e := NewEncoder()
	e.SetBuffer(scratch)
	e.Uint32(42)
	e.Opaque([]byte("abc"))
	if &e.Bytes()[0] != &scratch[:1][0] {
		t.Error("encoding did not reuse the caller's buffer")
	}
	d := NewDecoder(e.Bytes())
	if d.Uint32() != 42 || string(d.Opaque()) != "abc" || d.Err() != nil {
		t.Error("round trip through caller buffer failed")
	}
}

func TestImageSurvivesRelease(t *testing.T) {
	e := GetEncoder()
	e.String("survives")
	head, _ := e.Image()
	alias := e.Bytes()
	e.Release()
	// Stomp the pooled buffer through a fresh encoder.
	f := GetEncoder()
	f.Raw(bytes.Repeat([]byte{0xee}, len(alias)+8))
	defer f.Release()
	d := NewDecoder(head)
	if got := d.String(); got != "survives" {
		t.Errorf("copy mutated after Release: %q", got)
	}
}

func TestPooledEncoderRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		e := GetEncoder()
		if e.Len() != 0 {
			t.Fatal("pooled encoder not reset")
		}
		e.Uint32(uint32(i))
		wire := bytes.Clone(e.Bytes())
		e.Release()
		d := NewDecoder(wire)
		if d.Uint32() != uint32(i) {
			t.Fatalf("iteration %d: pooled round trip corrupt", i)
		}
	}
}

func TestMaxItemSharedLimit(t *testing.T) {
	if MaxItem != maxItem {
		t.Fatal("exported and private limits diverge")
	}
	e := NewEncoder()
	e.Uint32(MaxItem + 1)
	d := NewDecoder(e.Bytes())
	if d.OpaqueRef() != nil || !errors.Is(d.Err(), ErrTooLong) {
		t.Error("OpaqueRef accepted an item above MaxItem")
	}
}

// sample is described once, as codec calls; encode and decode share it.
type sample struct {
	a     uint32
	b     uint64
	c     int64
	flag  bool
	s     string
	owned []byte
	opt   bool
	list  []string
	rest  []byte
}

func (m *sample) xdr(c Codec) {
	c.Uint32(&m.a)
	c.Uint64(&m.b)
	c.Int64(&m.c)
	c.Bool(&m.flag)
	c.String(&m.s)
	c.Opaque(&m.owned)
	Count(c, &m.list, 4)
	for i := range m.list {
		c.String(&m.list[i])
	}
	c.OptionalBool(&m.opt)
	if !c.AtEnd() {
		c.Raw(&m.rest)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := sample{a: 7, b: math.MaxUint64, c: math.MinInt64, flag: true, s: "name.c",
		owned: []byte{4, 5}, opt: true, list: []string{"x", "yz"}, rest: []byte{9}}
	e := NewEncoder()
	in.xdr(e.Codec())
	wire := e.Bytes()

	var out sample
	d := NewDecoder(wire)
	out.xdr(d.Codec())
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.Err(), d.Remaining())
	}
	if out.a != in.a || out.b != in.b || out.c != in.c || !out.flag || out.s != in.s || !out.opt ||
		!bytes.Equal(out.owned, in.owned) ||
		len(out.list) != 2 || out.list[1] != "yz" || !bytes.Equal(out.rest, in.rest) {
		t.Fatalf("round trip:\n  in  %+v\n  out %+v", in, out)
	}
	wire[len(wire)-1] = 8 // the raw tail, a view
	wire[40] = 98         // the first Opaque byte, copied out
	if out.rest[0] != 8 || out.owned[0] != 4 {
		t.Error("Raw must alias the image, Opaque must copy it")
	}
}

func TestCodecOptionalBool(t *testing.T) {
	unset := NewEncoder()
	(&sample{}).xdr(unset.Codec())
	set := NewEncoder()
	(&sample{opt: true}).xdr(set.Codec())
	if grew := set.Len() - unset.Len(); grew != 4 {
		t.Errorf("a set flag adds %d bytes, want 4 (and an unset one none)", grew)
	}
	for _, e := range []*Encoder{unset, set} {
		var out sample
		d := NewDecoder(e.Bytes())
		out.xdr(d.Codec())
		if d.Err() != nil || out.opt != (e == set) {
			t.Errorf("flag decoded as %v (%v), want %v", out.opt, d.Err(), e == set)
		}
	}
}

func TestCodecCountRejectsCorruptLengths(t *testing.T) {
	for _, tc := range []struct {
		n    uint32
		want error
	}{{5, ErrTooLong}, {3, ErrShortBuffer}} {
		e := NewEncoder()
		e.Uint32(tc.n)
		e.String("ab") // 8 bytes: room for two elements at most
		d := NewDecoder(e.Bytes())
		var list []string
		if Count(d.Codec(), &list, 4); len(list) != 0 || !errors.Is(d.Err(), tc.want) {
			t.Errorf("count %d: made %d elements, %v; want none, %v", tc.n, len(list), d.Err(), tc.want)
		}
	}
}
