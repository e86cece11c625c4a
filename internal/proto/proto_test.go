package proto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"spritelynfs/internal/localfs"
)

func TestHandleRoundTrip(t *testing.T) {
	h := Handle{FSID: 3, Ino: 0xdeadbeefcafe, Gen: 77}
	if got := roundTrip(t, &h); *got != h {
		t.Errorf("round trip %+v -> %+v", h, got)
	}
}

func TestFattrRoundTrip(t *testing.T) {
	f := Fattr{
		Type: 1, Mode: 0o644, Nlink: 2, Size: 1 << 40, Blocks: 99,
		BlockSize: 4096, Fileid: 12345, Gen: 9,
		Atime: 1, Mtime: 2, Ctime: 3,
	}
	if got := roundTrip(t, &f); *got != f {
		t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", f, got)
	}
}

// roundTrip encodes in and decodes the image into a fresh value.
func roundTrip[T any, P interface {
	*T
	Message
}](t *testing.T, in P) P {
	t.Helper()
	out := P(new(T))
	if left, err := decodeInto(out, Marshal(in)); err != nil || left != 0 {
		t.Fatalf("%T: %v, %d bytes left over", in, err, left)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	h := Handle{FSID: 1, Ino: 42, Gen: 7}
	fa := Fattr{Type: 1, Size: 100, Fileid: 42, BlockSize: 4096}

	if got := roundTrip(t, &OpenArgs{Handle: h, WriteMode: true}); got.Handle != h || !got.WriteMode {
		t.Errorf("OpenArgs: %+v", got)
	}

	or := &OpenReply{Status: OK, CacheEnabled: true, Version: 9, PrevVersion: 8, Attr: fa}
	if got := roundTrip(t, or); *got != *or {
		t.Errorf("OpenReply: %+v", got)
	}

	// Non-OK replies omit the body entirely.
	bad := &OpenReply{Status: ErrStale, CacheEnabled: true, Version: 5}
	got := roundTrip(t, bad)
	if got.Status != ErrStale || got.CacheEnabled || got.Version != 0 {
		t.Errorf("error OpenReply carried a body: %+v", got)
	}

	// ErrInconsistent replies DO carry the body (§3.2).
	inc := &OpenReply{Status: ErrInconsistent, CacheEnabled: false, Version: 5, PrevVersion: 4, Attr: fa}
	if got := roundTrip(t, inc); *got != *inc {
		t.Errorf("inconsistent OpenReply: %+v", got)
	}

	ca := &CallbackArgs{Handle: h, WriteBack: true, Invalidate: false, Release: true}
	if got := roundTrip(t, ca); *got != *ca {
		t.Errorf("CallbackArgs: %+v", got)
	}

	wa := &WriteArgs{Handle: h, Offset: 8192, Data: []byte("block data")}
	gw := roundTrip(t, wa)
	if gw.Handle != h || gw.Offset != 8192 || !bytes.Equal(gw.Data, wa.Data) {
		t.Errorf("WriteArgs: %+v", gw)
	}

	rr := &ReadReply{Status: OK, Attr: fa, Data: []byte("xyz")}
	gr := roundTrip(t, rr)
	if gr.Status != OK || !bytes.Equal(gr.Data, rr.Data) || gr.Attr != fa {
		t.Errorf("ReadReply: %+v", gr)
	}

	dr := &ReaddirReply{Status: OK, Entries: []DirEntry{{"a", 1}, {"b", 2}}}
	gd := roundTrip(t, dr)
	if len(gd.Entries) != 2 || gd.Entries[1].Name != "b" || gd.Entries[1].Fileid != 2 {
		t.Errorf("ReaddirReply: %+v", gd)
	}

	ra := &RenameArgs{SrcDir: h, SrcName: "x", DstDir: Handle{FSID: 1, Ino: 9}, DstName: "y"}
	if got := roundTrip(t, ra); *got != *ra {
		t.Errorf("RenameArgs: %+v", got)
	}

	sa := &SetattrArgs{Handle: h, SetSize: true, Size: 0, SetMode: false, Mode: 0}
	if got := roundTrip(t, sa); *got != *sa {
		t.Errorf("SetattrArgs: %+v", got)
	}

	ro := &ReopenArgs{Handle: h, Readers: 2, Writers: 1, Version: 44, HasDirty: true}
	if got := roundTrip(t, ro); *got != *ro {
		t.Errorf("ReopenArgs: %+v", got)
	}

	si := &ServerInfoReply{Status: OK, Epoch: 99, InGrace: true}
	if got := roundTrip(t, si); *got != *si {
		t.Errorf("ServerInfoReply: %+v", got)
	}
}

func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{nil, OK},
		{localfs.ErrNoEnt, ErrNoEnt},
		{fmt.Errorf("wrapped: %w", localfs.ErrNoEnt), ErrNoEnt},
		{localfs.ErrExist, ErrExist},
		{localfs.ErrNotDir, ErrNotDir},
		{localfs.ErrIsDir, ErrIsDir},
		{localfs.ErrNotEmpty, ErrNotEmpty},
		{localfs.ErrStale, ErrStale},
		{localfs.ErrInval, ErrInval},
		{errors.New("mystery"), ErrIO},
	}
	for _, c := range cases {
		if got := StatusFromErr(c.err); got != c.want {
			t.Errorf("StatusFromErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	if OK.Err() != nil {
		t.Error("OK.Err() != nil")
	}
	err := ErrStale.Err()
	if err == nil || StatusOf(err) != ErrStale {
		t.Errorf("status error round trip: %v -> %v", err, StatusOf(err))
	}
	if StatusOf(nil) != OK {
		t.Error("StatusOf(nil)")
	}
	if StatusOf(errors.New("x")) != ErrIO {
		t.Error("StatusOf(unknown)")
	}
}

func TestProcNames(t *testing.T) {
	cases := map[string]string{
		ProcName(ProgNFS, ProcLookup):          "lookup",
		ProcName(ProgNFS, ProcOpen):            "open",
		ProcName(ProgNFS, ProcClose):           "close",
		ProcName(ProgCallback, CbProcCallback): "callback",
		ProcName(ProgNFS, ProcRead):            "read",
		ProcName(ProgNFS, ProcWrite):           "write",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("ProcName = %q, want %q", got, want)
		}
	}
}

func TestQuickHandleRoundTrip(t *testing.T) {
	f := func(fsid uint32, ino uint64, gen uint32) bool {
		h := Handle{FSID: fsid, Ino: ino, Gen: gen}
		var got Handle
		_, err := decodeInto(&got, Marshal(&h))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWriteArgsRoundTrip(t *testing.T) {
	f := func(ino uint64, off int64, data []byte) bool {
		in := &WriteArgs{Handle: Handle{Ino: ino}, Offset: off, Data: data}
		var out WriteArgs
		if _, err := decodeInto(&out, Marshal(in)); err != nil {
			return false
		}
		return out.Handle.Ino == ino && out.Offset == off &&
			(len(out.Data) == len(data) && (len(data) == 0 || bytes.Equal(out.Data, data)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFattrFromAttr(t *testing.T) {
	a := localfs.Attr{
		Ino: 5, Gen: 2, Type: localfs.TypeDirectory, Mode: 0o755,
		Nlink: 3, Size: 4096, Blocks: 1, Mtime: 1000,
	}
	f := FattrFromAttr(a, 4096)
	if !f.IsDir() || f.Fileid != 5 || f.Gen != 2 || f.Size != 4096 || f.Mtime != 1000 || f.BlockSize != 4096 {
		t.Errorf("FattrFromAttr = %+v", f)
	}
}

func TestDumpStateReplyRoundTrip(t *testing.T) {
	in := &DumpStateReply{
		Status: OK,
		Epoch:  7,
		Entries: []DumpEntry{
			{
				Handle: Handle{FSID: 1, Ino: 5, Gen: 2}, State: 3,
				StateName: "ONE-RDR-DIRTY", Version: 9, LastWriter: "clientA",
				Inconsistent: true,
				Clients: []DumpClient{
					{Client: "clientA", Readers: 1, Writers: 0, Caching: true},
					{Client: "clientB", Readers: 2, Writers: 1, Caching: false},
				},
			},
			{Handle: Handle{FSID: 1, Ino: 6, Gen: 1}, StateName: "CLOSED"},
		},
	}
	out := roundTrip(t, in)
	if out.Epoch != 7 || len(out.Entries) != 2 {
		t.Fatalf("out %+v", out)
	}
	e := out.Entries[0]
	if e.StateName != "ONE-RDR-DIRTY" || e.LastWriter != "clientA" || !e.Inconsistent || len(e.Clients) != 2 {
		t.Errorf("entry %+v", e)
	}
	if e.Clients[1].Client != "clientB" || e.Clients[1].Writers != 1 || e.Clients[1].Caching {
		t.Errorf("client %+v", e.Clients[1])
	}
	// Error replies carry no body.
	out2 := roundTrip(t, &DumpStateReply{Status: ErrIO, Epoch: 9})
	if out2.Status != ErrIO || out2.Epoch != 0 {
		t.Errorf("error reply %+v", out2)
	}
}

func TestCommitPipelineMessages(t *testing.T) {
	h := Handle{FSID: 1, Ino: 42, Gen: 7}

	wa := &WriteArgs{Handle: h, Offset: 4096, Data: []byte("unstable"), Unstable: true}
	gw := roundTrip(t, wa)
	if gw.Handle != h || gw.Offset != 4096 || !gw.Unstable || !bytes.Equal(gw.Data, wa.Data) {
		t.Errorf("WriteArgs: %+v", gw)
	}

	wr := &WriteReply{Status: OK, Attr: Fattr{Size: 4104, Mtime: 3}, Committed: false, Verifier: 5}
	if got := roundTrip(t, wr); *got != *wr {
		t.Errorf("WriteReply: %+v", got)
	}
	// Error replies carry no body after the status.
	werr := &WriteReply{Status: ErrStale, Verifier: 99}
	if got := roundTrip(t, werr); got.Status != ErrStale || got.Verifier != 0 {
		t.Errorf("error WriteReply: %+v", got)
	}

	ca := &CommitArgs{Handle: h}
	if got := roundTrip(t, ca); *got != *ca {
		t.Errorf("CommitArgs: %+v", got)
	}

	cr := &CommitReply{Status: OK, Verifier: 12}
	if got := roundTrip(t, cr); *got != *cr {
		t.Errorf("CommitReply: %+v", got)
	}
}

func TestProcCommitName(t *testing.T) {
	if got := ProcName(ProgNFS, ProcCommit); got != "commit" {
		t.Errorf("ProcName(commit) = %q", got)
	}
}
