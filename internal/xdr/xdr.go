// Package xdr implements External Data Representation encoding as used by
// ONC RPC and NFS (RFC 1014 subset): big-endian 4-byte alignment, with
// integers, booleans, fixed and variable-length opaque data, and strings.
//
// The NFS heritage of Spritely NFS makes XDR the natural wire format: the
// paper's protocol extensions (open, close, callback) are new procedures in
// the same RPC framework, so they marshal through this package exactly as
// the original NFS procedures do.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the decoder.
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrTooLong     = errors.New("xdr: variable-length item exceeds limit")
)

// MaxItem bounds variable-length items so a corrupt length field cannot
// cause a huge allocation. The TCP transport's record-marking limit is
// the same constant: no legal record can carry an item the decoder would
// reject, and no legal item can need a record the framer would refuse.
const MaxItem = 1 << 24

// maxItem is the historical private name for MaxItem.
const maxItem = MaxItem

// Encoder appends XDR-encoded values to a byte slice. A message's last
// field may instead be kept by reference as the image's tail
// (Codec.Tail): the message is then buf, the tail, and the tail's pad.
type Encoder struct {
	buf  []byte
	tail []byte
}

// zeros is the pad of every tail. A tail goes by reference without its
// padding, which RFC 4506 §4.10 makes a function of its length, so
// nothing holds a tail's pad until a writer puts it on the wire.
var zeros [3]byte

// Pad returns the zero bytes that follow n bytes of opaque data on the
// wire, up to a word — an inline item's, or a tail's: a view of one
// shared array, to be read and never written.
func Pad(n int) []byte {
	p := -n & 3
	return zeros[:p:p]
}

// WireLen returns the length on the wire of a message sent as a head and
// a tail (Encoder.Parts, Encoder.Image): the head, the tail, and the
// tail's pad to a word. A message sent whole is its head.
func WireLen(head, tail []byte) int { return len(head) + len(tail) + len(Pad(len(tail))) }

// Join returns a message sent as a head and a tail as the one buffer of
// its wire bytes, head‖tail‖pad: head itself when there is no tail, and a
// buffer of its own otherwise, since head may be a view of a frozen image.
func Join(head, tail []byte) []byte {
	return append(append(head[:len(head):len(head)], tail...), Pad(len(tail))...)
}

// NewEncoder returns an encoder with an empty buffer.
func NewEncoder() *Encoder { return &Encoder{} }

// maxPooledBuf caps the capacity an encoder may carry back into the
// pool, so one giant message doesn't pin its buffer forever.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a reset encoder from the package pool. Steady-state
// callers pay no allocation: the buffer capacity of prior uses is
// retained (up to a cap). Pair with Release.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Release returns e to the pool. The caller must not touch e, or any
// buffer obtained from Bytes or Parts, after Release — copy first (Image)
// if the encoded message outlives the encoder.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	e.tail = nil // the pool never pins a page
	encPool.Put(e)
}

// Bytes returns the encoded message, a tail and its pad appended to the
// buffer. The slice aliases the encoder's internal storage: it is valid
// until the next Reset, SetBuffer, or Release.
func (e *Encoder) Bytes() []byte {
	if e.tail != nil {
		e.buf, e.tail = append(append(e.buf, e.tail...), Pad(len(e.tail))...), nil
	}
	return e.buf
}

// Image returns the encoded message as an exact-size copy of the buffer
// the caller owns, and the tail, by reference, nil if there is none: the
// message is head‖tail‖Pad(len(tail)). The tail is whatever Codec.Tail
// was handed, so it is only as frozen as the bytes its caller kept.
func (e *Encoder) Image() (head, tail []byte) {
	head = make([]byte, len(e.buf))
	copy(head, e.buf)
	return head, e.tail
}

// Parts returns the encoded message as its two parts, both views: head
// aliases the encoder's buffer and is valid until the next Reset,
// SetBuffer or Release, and tail is what Codec.Tail was handed, nil if
// there is none. The message is head‖tail‖Pad(len(tail)).
func (e *Encoder) Parts() (head, tail []byte) { return e.buf, e.tail }

// Len returns the message's length on the wire (WireLen).
func (e *Encoder) Len() int { return WireLen(e.buf, e.tail) }

// Reset discards the buffer contents, retaining capacity, and the tail.
func (e *Encoder) Reset() { e.buf, e.tail = e.buf[:0], nil }

// SetBuffer directs subsequent encoding to append into buf (starting at
// length zero, reusing its capacity) — append-into-caller-buffer
// encoding for callers that manage their own storage. Bytes returns the
// possibly-regrown buffer.
func (e *Encoder) SetBuffer(buf []byte) { e.buf, e.tail = buf[:0], nil }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a 64-bit signed integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes a boolean as 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data (length-prefixed, padded).
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(append(e.buf, b...), Pad(len(b))...)
}

// String encodes a string as variable-length opaque data.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Raw appends b with no length prefix and no padding. It is only valid
// for the final, trailing component of a message (an embedded body whose
// length is implied by the message boundary).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder consumes XDR-encoded values from a byte slice, and from a tail
// when the image came in two parts (ResetTail). Decoding methods record
// the first error; callers may check Err once after a batch of reads
// rather than after every field.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	tail []byte
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points d at buf and clears its offset and error, so a decoder
// value (typically stack-allocated) can be reused without allocation:
//
//	var d xdr.Decoder
//	d.Reset(wire)
func (d *Decoder) Reset(buf []byte) { d.ResetTail(buf, nil) }

// ResetTail is Reset for an image sent as a head and a tail (Encoder.Image):
// buf is the head, and the item Codec.Tail decodes is tail, whose pad is
// implied.
func (d *Decoder) ResetTail(buf, tail []byte) {
	*d = Decoder{buf: buf, tail: tail}
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortBuffer, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) skipPad(n int) {
	if pad := len(Pad(n)); pad > 0 {
		d.take(pad)
	}
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes a boolean.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// Opaque decodes variable-length opaque data. The returned slice is a
// copy, safe to retain.
func (d *Decoder) Opaque() []byte {
	b := d.OpaqueRef()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// OpaqueRef decodes variable-length opaque data without copying: the
// returned slice is a view into the decoder's buffer. Zero-copy is only
// sound while the underlying buffer lives and is not mutated or reused —
// a caller that retains the data past the buffer's lifetime (pooled
// transport buffers, mutable caches) must copy it. See DESIGN.md §13 for
// the ownership rules.
func (d *Decoder) OpaqueRef() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxItem {
		d.err = fmt.Errorf("%w: %d bytes", ErrTooLong, n)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	d.skipPad(int(n))
	return b
}

// String decodes a string (one copy: the string conversion).
func (d *Decoder) String() string { return string(d.OpaqueRef()) }

// Raw consumes and returns all remaining bytes, unpadded (the counterpart
// of Encoder.Raw for trailing message bodies). The returned slice is a
// copy.
func (d *Decoder) Raw() []byte {
	b := d.RawRef()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// RawRef is Raw without the copy: the returned slice is a view into the
// decoder's buffer (see OpaqueRef for the aliasing rules).
func (d *Decoder) RawRef() []byte {
	return d.take(d.Remaining())
}
