package xdr

import "fmt"

// Codec is one direction of a symmetric XDR description. It holds either
// an Encoder or a Decoder, and each primitive takes a pointer to the
// field it codes: encoding reads the field, decoding fills it in. A
// message describes its wire format once, as a method that calls the
// primitives in wire order,
//
//	func (m *ReadArgs) XDR(c xdr.Codec) {
//		m.Handle.XDR(c)
//		c.Int64(&m.Offset)
//		c.Uint32(&m.Count)
//	}
//
// and that one method both marshals and unmarshals it, so the two
// directions cannot drift apart. A Codec is a small value: handing one to
// a statically called XDR method allocates nothing.
type Codec struct {
	e *Encoder
	d *Decoder
}

// Codec returns a Codec that appends to e.
func (e *Encoder) Codec() Codec { return Codec{e: e} }

// Codec returns a Codec that consumes d.
func (d *Decoder) Codec() Codec { return Codec{d: d} }

// Err returns the decoder's first error; encoding never fails.
func (c Codec) Err() error {
	if c.d == nil {
		return nil
	}
	return c.d.err
}

// AtEnd reports whether a decoding Codec has nothing left to read, or
// has failed. It is false when encoding, so a trailing part guarded by it
// is always written and read only when present.
func (c Codec) AtEnd() bool { return c.d != nil && (c.d.err != nil || c.d.Remaining() == 0) }

// Uint32 codes a 32-bit unsigned integer.
func (c Codec) Uint32(v *uint32) {
	if c.d != nil {
		*v = c.d.Uint32()
	} else {
		c.e.Uint32(*v)
	}
}

// Uint64 codes a 64-bit unsigned integer (XDR hyper).
func (c Codec) Uint64(v *uint64) {
	if c.d != nil {
		*v = c.d.Uint64()
	} else {
		c.e.Uint64(*v)
	}
}

// Int64 codes a 64-bit signed integer.
func (c Codec) Int64(v *int64) {
	if c.d != nil {
		*v = c.d.Int64()
	} else {
		c.e.Int64(*v)
	}
}

// Bool codes a boolean; a decoder reads any non-zero word as true.
func (c Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.Bool(*v)
	}
}

// OptionalBool codes a trailing flag that is on the wire only when set,
// so a message that does not set it is byte-identical to the format that
// predates the flag: encoding writes true and nothing for false, decoding
// reads the flag only when a whole word remains.
func (c Codec) OptionalBool(v *bool) {
	if c.d != nil {
		*v = c.d.err == nil && c.d.Remaining() >= 4 && c.d.Bool()
	} else if *v {
		c.e.Bool(true)
	}
}

// String codes a string as variable-length opaque data.
func (c Codec) String(v *string) {
	if c.d != nil {
		*v = c.d.String()
	} else {
		c.e.String(*v)
	}
}

// Opaque codes variable-length opaque data. A decoded value is a copy the
// caller may keep and change.
func (c Codec) Opaque(v *[]byte) {
	if c.d != nil {
		*v = c.d.Opaque()
	} else {
		c.e.Opaque(*v)
	}
}

// Tail codes variable-length opaque data that is a message's last field,
// so that it can travel by reference instead of being copied behind the
// header. Encoding keeps a non-empty *v as the encoder's tail, its length
// word in the buffer, and encodes an empty one inline, as Opaque does; the
// tail's pad is carried apart (Pad). Decoding reads the length word and
// takes the bytes from the decoder's tail if it has one (ResetTail),
// failing with ErrShortBuffer unless the tail is exactly the item, its
// padding implied, or else from the buffer, as Decoder.OpaqueRef does.
// Either way the bytes on the wire are those of Opaque, and a decoded
// value is a view with Decoder.OpaqueRef's rules.
func (c Codec) Tail(v *[]byte) {
	switch d := c.d; {
	case d == nil && len(*v) > 0:
		c.e.Uint32(uint32(len(*v)))
		c.e.tail = *v
	case d == nil:
		c.e.Opaque(*v)
	case d.tail == nil:
		*v = d.OpaqueRef()
	default:
		n := d.Uint32()
		switch {
		case d.err != nil:
			*v = nil
		case int64(n) != int64(len(d.tail)):
			d.err = fmt.Errorf("%w: a %d-byte item in a %d-byte tail", ErrShortBuffer, n, len(d.tail))
			*v = nil
		default:
			*v, d.tail = d.tail[:n:n], nil
		}
	}
}

// Raw codes a message's unpadded trailing body: encoding appends *v,
// decoding makes *v a view of every byte left (Decoder.RawRef).
func (c Codec) Raw(v *[]byte) {
	if c.d != nil {
		*v = c.d.RawRef()
	} else {
		c.e.Raw(*v)
	}
}

// Count codes the length of the counted array *s; decoding also makes *s
// that long, for the caller to code each element into. A decoder fails,
// leaving *s empty, when the length exceeds max (ErrTooLong) or when
// fewer than four bytes per element remain (ErrShortBuffer: no element
// of an XDR array is shorter than a word), so a corrupt length cannot
// drive a large allocation.
func Count[T any](c Codec, s *[]T, max int) {
	if c.d == nil {
		c.e.Uint32(uint32(len(*s)))
		return
	}
	d := c.d
	n := d.Uint32()
	switch {
	case d.err != nil:
		n = 0
	case n > uint32(max):
		d.err = fmt.Errorf("%w: %d elements, limit %d", ErrTooLong, n, max)
		n = 0
	case int64(n)*4 > int64(d.Remaining()):
		d.err = fmt.Errorf("%w: %d elements in %d bytes", ErrShortBuffer, n, d.Remaining())
		n = 0
	}
	*s = make([]T, n)
}
