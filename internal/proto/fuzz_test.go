package proto

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"spritelynfs/internal/xdr"
)

// fuzzSeeds holds a valid value of every type with an XDR method, so the
// corpus covers every wire format the RPC layer can carry. The fuzzer
// indexes into it; TestFuzzSeedsCoverEveryXDRType keeps it complete.
var fuzzSeeds = []Message{
	&StatusReply{Status: ErrStale},
	&AttrReply{},
	&HandleReply{},
	&HandleArgs{},
	&SetattrArgs{},
	&DirOpArgs{Name: "file07.c"},
	&CreateArgs{Name: "new.c"},
	&RenameArgs{SrcName: "a", DstName: "b"},
	&ReadArgs{Count: 8192},
	&ReadReply{Status: OK, Data: []byte("payload bytes")},
	&WriteArgs{Offset: 4096, Data: bytes.Repeat([]byte{0xa5}, 100), Unstable: true},
	&WriteReply{Status: OK, Committed: true, Verifier: 7},
	&CommitArgs{},
	&CommitReply{Status: OK},
	&ReaddirReply{Status: OK, Entries: []DirEntry{{Name: "f", Fileid: 3}}},
	&StatfsReply{},
	&OpenArgs{},
	&OpenReply{Status: OK},
	&CloseArgs{},
	&CallbackArgs{},
	&ReopenArgs{},
	&ServerInfoReply{Status: OK},
	&DumpStateReply{Status: OK},
	&LinkArgs{ToName: "ln"},
	&SymlinkArgs{Name: "s", Target: "/t"},
	&ReadlinkReply{Status: OK, Target: "/t"},
	&MetricsReply{Status: OK},
	&AuditReply{Status: OK},
	&WccReply{Status: OK, Wcc: []WccData{{}}},
	&LookupPathArgs{Names: []string{"usr", "lib"}},
	&LookupPathReply{Status: OK},
	&ReaddirAttrsReply{Status: OK, Entries: []DirEntryAttrs{{Name: "f"}}},
	&ReplRecord{Seq: 9, Kind: ReplDup, From: "c1", Xid: 4, Wire: []byte{1, 2, 3, 4}},
	&ReplStreamArgs{Shard: 1, Epoch: 2, Verifier: 3, Records: []ReplRecord{{Seq: 1, Kind: ReplWrite, Ino: 7, Length: 10}}},
	&ReplStreamReply{Status: OK, Applied: 12},
	&ReplSyncArgs{Shard: 1, Seq: 40},
	&ReplSyncReply{Status: OK, Applied: 40, Synced: true},
	&View{Num: 3, Primary: "s0", Backup: "s1"},
	&ViewPingArgs{Shard: 0, Addr: "s0", ViewSeen: 3, Synced: true},
	&ViewPingReply{Status: OK, View: View{Num: 1, Primary: "s0"}, Map: ShardMap{Version: 1, Servers: []string{"s0"}}},
	&ShardView{Shard: 2, View: View{Num: 5}},
	&ViewGetArgs{},
	&ViewGetReply{Status: OK, Views: []ShardView{{Shard: 0, View: View{Num: 1, Primary: "s0", Backup: "s1"}}}, Map: ShardMap{Version: 2, Servers: []string{"s0", "s1"}, Assignments: []ShardAssignment{{Prefix: "/src", Shard: 1}}}},
	&ShardMap{Version: 4, Servers: []string{"a", "b"}, Assignments: []ShardAssignment{{Prefix: "/x", Shard: 0}}},
	&ShardMapArgs{},
	&ShardMapReply{Status: OK, Map: ShardMap{Version: 1, Servers: []string{"s"}}},
	&Handle{FSID: 1, Ino: 42, Gen: 7},
	&Fattr{Type: 1, Mode: 0o644, Size: 8192, Fileid: 42},
	func() *Status { s := ErrNotHome; return &s }(),
}

// typeName names m's type.
func typeName(m Message) string { return reflect.TypeOf(m).Elem().Name() }

// zeroOf returns a new zero value of m's type.
func zeroOf(m Message) Message { return reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message) }

// decodeInto decodes data into m and returns the number of bytes it left
// unread and the decoder's error.
func decodeInto(m Message, data []byte) (left int, err error) { return decodeSplit(m, data, nil) }

// decodeSplit is decodeInto for an image sent as a head and a tail.
func decodeSplit(m Message, head, tail []byte) (left int, err error) {
	var d xdr.Decoder
	d.ResetTail(head, tail)
	m.XDR(d.Codec())
	return d.Remaining(), d.Err()
}

// FuzzDecodeMessage feeds arbitrary bytes to every message's XDR method.
// Two properties must hold for any input: decoding never panics (no
// out-of-bounds reads through the zero-copy views, no allocation driven
// by a corrupt length field), and decoding is *stable* — re-encoding the
// decoded value and decoding it again reproduces the same wire image
// (encode∘decode is idempotent). The corpus is seeded with a valid
// encoding of every message type, so mutation starts from structurally
// interesting inputs rather than pure noise.
//
// The input is an image in two parts, data and a tail (xdr.Codec.Tail),
// which is empty in the whole-message seeds. A ReadReply, the message
// whose data goes out as a tail, that decodes from the two parts without
// error must also decode, to the same value, from the joined bytes.
func FuzzDecodeMessage(f *testing.F) {
	for i, m := range fuzzSeeds {
		f.Add(i, Marshal(m), []byte{})
	}
	f.Add(0, []byte{}, []byte{})
	f.Add(1, []byte{0xff, 0xff, 0xff, 0xff}, []byte{})
	// Split-image seeds: a ReadReply whose data is the tail, and one whose
	// tail disagrees with its length word.
	read := slices.IndexFunc(fuzzSeeds, func(m Message) bool { _, ok := m.(*ReadReply); return ok })
	for _, n := range []int{1, 4, 4097, 8192} {
		e := xdr.NewEncoder()
		(&ReadReply{Status: OK, Data: bytes.Repeat([]byte{0x5a}, n)}).XDR(e.Codec())
		head, tail := e.Image()
		f.Add(read, head, tail)
		f.Add(read, head, tail[:n-1])
	}
	f.Fuzz(func(t *testing.T, idx int, data, tail []byte) {
		if idx < 0 {
			idx = -(idx + 1)
		}
		seed := fuzzSeeds[idx%len(fuzzSeeds)]

		m1 := zeroOf(seed)
		left, err := decodeSplit(m1, data, tail)
		if r, ok := m1.(*ReadReply); ok {
			if len(r.Data) > len(data)+len(tail) {
				t.Fatalf("ReadReply decoded %d bytes of data from a %d+%d-byte image", len(r.Data), len(data), len(tail))
			}
			if joined := zeroOf(seed); err == nil && left == 0 && len(tail) > 0 {
				if _, jerr := decodeInto(joined, xdr.Join(data, tail)); jerr != nil || !reflect.DeepEqual(m1, joined) {
					t.Fatalf("a split image decodes to %+v, joined to %+v (%v)", m1, joined, jerr)
				}
			}
		}
		// Whatever the decoder made of the input, encoding it and
		// decoding the result must be a fixed point.
		enc1 := Marshal(m1)
		m2 := zeroOf(seed)
		decodeInto(m2, enc1)
		if enc2 := Marshal(m2); !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: decode not stable:\n first %x\nsecond %x", typeName(seed), enc1, enc2)
		}
	})
}

// TestFuzzSeedsRoundTrip pins the non-fuzz property the seeds rely on:
// every seed message survives Marshal → decode → Marshal byte-identically
// (so the fuzzer's stability check starts from a known-good fixed point).
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, seed := range fuzzSeeds {
		wire := Marshal(seed)
		m := zeroOf(seed)
		if left, err := decodeInto(m, wire); err != nil || left != 0 {
			t.Errorf("%s: decode of own encoding: %v, %d bytes left", typeName(seed), err, left)
			continue
		}
		if again := Marshal(m); !bytes.Equal(again, wire) {
			t.Errorf("%s: re-encode differs:\n was %x\n got %x", typeName(seed), wire, again)
		}
	}
}
