package client_test

import (
	"bytes"
	"hash/crc32"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/localmount"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/xdr"
)

// fileImpl is one vfs.File implementation as the caller's-bytes tests
// drive it: a reads and writes the file "f", whose contents b wrote
// first. Over a server, a's calls pass the tap, which keeps a's last READ
// call for replay, and read-ahead is off, so every READ belongs to the
// read that sent it.
type fileImpl struct {
	k        *sim.Kernel
	w        *world // nil for a local mount: no server, no READ to replay
	store    *localfs.Store
	a, b     vfs.FS
	lastRead *[]byte
	// shared: b reopens the file for write once a has it open, so SNFS
	// makes it write-shared and a reads and writes the server directly.
	shared bool
	audit  *audit.Auditor // when set, it must end clean
}

type mkClient func(w *world, ep *rpc.Endpoint, cfg client.Config) vfs.FS

func nfsClient(w *world, ep *rpc.Endpoint, cfg client.Config) vfs.FS {
	return client.NewNFS(w.k, ep, cfg, client.NFSOptions{})
}

func snfsClient(w *world, ep *rpc.Endpoint, cfg client.Config) vfs.FS {
	return client.NewSNFS(w.k, ep, cfg, client.SNFSOptions{})
}

func rfsClient(w *world, ep *rpc.Endpoint, cfg client.Config) vfs.FS {
	return client.NewRFS(w.k, ep, cfg)
}

// tapped builds client A, whose calls pass the tap, and client B with mk.
func tapped(w *world, mk mkClient) *fileImpl {
	var lastRead []byte
	w.tapCalls(proto.ProcRead, func(m simnet.Message, _ xdr.Codec) { lastRead = m.Payload })
	epA, cfgA := w.clientConfig("clientA")
	cfgA.Server, cfgA.ReadAhead = "tap", false
	epB, cfgB := w.clientConfig("clientB")
	cfgB.ReadAhead = false
	return &fileImpl{k: w.k, w: w, store: w.media.Store(),
		a: mk(w, epA, cfgA), b: mk(w, epB, cfgB), lastRead: &lastRead}
}

// fileImpls lists every vfs.File implementation: the three clients (SNFS
// both cached and write-shared, and with spans armed), the local mount,
// and the auditor's wrapper.
var fileImpls = []struct {
	name  string
	build func() *fileImpl
}{
	{"NFS", func() *fileImpl { return tapped(newWorld(1, false, 4, server.SNFSOptions{}), nfsClient) }},
	{"SNFS cached", func() *fileImpl { return tapped(newWorld(1, true, 4, server.SNFSOptions{}), snfsClient) }},
	{"SNFS write-shared", func() *fileImpl {
		fi := tapped(newWorld(1, true, 4, server.SNFSOptions{}), snfsClient)
		fi.shared = true
		return fi
	}},
	{"RFS", func() *fileImpl { w, _ := newRFSWorld(1); return tapped(w, rfsClient) }},
	{"localmount", func() *fileImpl {
		k := sim.NewKernel(1)
		media := localfs.NewMedia(localfs.NewStore(k.Now, 4096), disk.New(k, "sd", disk.RA81()), 1, 3500*1024)
		fs := localmount.New(k, media)
		return &fileImpl{k: k, store: media.Store(), a: fs, b: fs}
	}},
	{"audit over NFS", func() *fileImpl {
		fi := tapped(newWorld(1, false, 4, server.SNFSOptions{}), nfsClient)
		fi.audit = audit.New(fi.k, nil)
		fi.a, fi.b = fi.audit.WrapFS(fi.a), fi.audit.WrapFS(fi.b)
		return fi
	}},
	{"SNFS with spans", func() *fileImpl {
		fi := tapped(newWorld(1, true, 4, server.SNFSOptions{}), snfsClient)
		r := span.NewRecorder(fi.k.Now, 16)
		fi.a.(*client.SNFSClient).Attach(trace.Instruments{Spans: r})
		fi.b.(*client.SNFSClient).Attach(trace.Instruments{Spans: r})
		return fi
	}},
}

// failed reports a non-nil err as a test error. The simulation runs on
// its own goroutines, so a failing step returns rather than stopping the
// test there.
func failed(t *testing.T, err error) bool {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
	return err != nil
}

// open has b write model as "f" and a open it read-write, and makes the
// file write-shared when the case asks. It returns nil on failure.
func (fi *fileImpl) open(t *testing.T, p *sim.Proc, model []byte) vfs.File {
	t.Helper()
	writeThrough(t, p, fi.b, "f", model)
	f, err := fi.a.Open(p, "f", vfs.ReadWrite, 0)
	if failed(t, err) {
		return nil
	}
	if fi.shared {
		if _, err := fi.b.Open(p, "f", vfs.ReadWrite, 0); failed(t, err) {
			return nil
		}
	}
	return f
}

// stored returns the file's bytes as the store (the server's, or the
// local mount's) holds them.
func (fi *fileImpl) stored(t *testing.T) []byte {
	t.Helper()
	a, err := fi.store.Lookup(fi.store.Root(), "f")
	if failed(t, err) {
		return nil
	}
	data, _ := fi.store.ReadAt(a.Ino, 0, int(a.Size))
	return bytes.Clone(data)
}

// run runs fn over a fresh build of the case, then checks its auditor.
func (fi *fileImpl) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	run(t, fi.k, fn)
	if err := fi.audit.Err(); err != nil {
		t.Error(err)
	}
}

const bs = 4096 // every case's block size

// TestReadIntoIsTheCallersBuffer: over every vfs.File implementation,
// ReadInto fills a buffer pre-filled with 0xff with the same count and
// bytes ReadAt returns — within a block, across two, a short tail, at and
// past end of file — and the bytes it fills are the caller's both ways:
// writing into the buffer reaches neither the client cache, nor the store,
// nor the duplicate cache's reply image, and a later WriteAt to the file
// does not change the buffer.
func TestReadIntoIsTheCallersBuffer(t *testing.T) {
	for _, impl := range fileImpls {
		t.Run(impl.name, func(t *testing.T) {
			fi := impl.build()
			model := fill(4*bs+1000, 'm') // five blocks, the last short
			size := int64(len(model))
			fi.run(t, func(p *sim.Proc) {
				f := fi.open(t, p, model)
				if f == nil {
					return
				}
				for _, c := range []struct {
					what string
					off  int64
					n    int
				}{
					{"within one block", 100, 1000},
					{"across two blocks", bs - 96, 200},
					{"short tail", 4*bs + 500, bs},
					{"at end of file", size, 100},
					{"past end of file", size + 5000, 100},
				} {
					b := bytes.Repeat([]byte{0xff}, c.n)
					n, err := f.ReadInto(p, b, c.off)
					want, werr := f.ReadAt(p, c.off, c.n)
					there := model[min(c.off, size):min(c.off+int64(c.n), size)]
					if err != nil || werr != nil || n != len(want) || !bytes.Equal(b[:n], want) || !bytes.Equal(want, there) {
						t.Errorf("%s: ReadInto = %d, %v; ReadAt = %d bytes, %v; the file has %d there, equal: %v",
							c.what, n, err, len(want), werr, len(there), bytes.Equal(b[:n], there))
					}
				}

				// A later write to the file does not reach the buffer.
				b := make([]byte, 200)
				if _, err := f.ReadInto(p, b, bs-96); failed(t, err) {
					return
				}
				read := bytes.Clone(b)
				mine := fill(200, 'w')
				if _, err := f.WriteAt(p, bs-96, mine); failed(t, err) {
					return
				}
				if failed(t, f.Sync(p)) { // no call in flight at the replay
					return
				}
				copy(model[bs-96:], mine)
				if !bytes.Equal(b, read) {
					t.Error("a WriteAt to the file changed the buffer an earlier ReadInto filled")
				}

				// Writing into the buffer reaches no cache and no store: a
				// block read now (a READ on the wire over a server) reads
				// back whole, and so does the duplicate cache's reply.
				if fi.w != nil {
					*fi.lastRead = nil
				}
				b = make([]byte, bs)
				if n, err := f.ReadInto(p, b, 3*bs); err != nil || !bytes.Equal(b[:n], model[3*bs:4*bs]) {
					t.Errorf("block 3: %d bytes, %v", n, err)
					return
				}
				clear(b)
				again := make([]byte, bs)
				if n, err := f.ReadInto(p, again, 3*bs); err != nil || !bytes.Equal(again[:n], model[3*bs:4*bs]) {
					t.Error("writing into the buffer reached the cache or the store")
				}
				if st := fi.stored(t); len(st) < 4*bs || !bytes.Equal(st[3*bs:4*bs], model[3*bs:4*bs]) {
					t.Error("writing into the buffer reached the store")
				}
				if fi.w != nil {
					if *fi.lastRead == nil {
						t.Error("block 3 was read with no READ on the wire")
						return
					}
					if !bytes.Equal(fi.w.replayRead(t, p, "clientA", *fi.lastRead), model[3*bs:4*bs]) {
						t.Error("writing into the buffer reached the duplicate cache's reply image")
					}
				}
			})
		})
	}
}

// TestWriteAtLeavesCallersBytes pins the contract Namespace.WriteFile's
// shared zero chunk relies on, over every vfs.File implementation:
// WriteAt neither writes into the bytes it is handed (their checksum
// holds through the writes and the flush) nor keeps them (scribbling over
// them straight after WriteAt returns changes neither the file nor what
// the store receives). Under -race it also shows no write-back reads them
// after WriteAt returns.
func TestWriteAtLeavesCallersBytes(t *testing.T) {
	for _, impl := range fileImpls {
		t.Run(impl.name, func(t *testing.T) {
			fi := impl.build()
			size := 4*bs + 1000
			fi.run(t, func(p *sim.Proc) {
				f := fi.open(t, p, fill(size, 'm'))
				if f == nil {
					return
				}

				// Not written into: whole blocks, an unaligned piece, and
				// the flush that sends them.
				data := fill(size, 'w')
				sum := crc32.ChecksumIEEE(data)
				if _, err := f.WriteAt(p, 0, data); failed(t, err) {
					return
				}
				if _, err := f.WriteAt(p, bs-96, data[100:400]); failed(t, err) {
					return
				}
				if failed(t, f.Sync(p)) {
					return
				}
				if crc32.ChecksumIEEE(data) != sum {
					t.Error("WriteAt or the flush after it wrote into the caller's bytes")
				}

				// Not kept: scribble as soon as each WriteAt returns.
				want := fill(size, 'k')
				mine := bytes.Clone(want)
				if _, err := f.WriteAt(p, 0, mine); failed(t, err) {
					return
				}
				clear(mine)
				piece := bytes.Clone(want[bs-96 : bs+104])
				if _, err := f.WriteAt(p, bs-96, piece); failed(t, err) {
					return
				}
				clear(piece)
				if failed(t, f.Sync(p)) {
					return
				}
				got := make([]byte, size)
				if n, err := f.ReadInto(p, got, 0); err != nil || !bytes.Equal(got[:n], want) {
					t.Errorf("the file reads back %d bytes (%v), not what was written: WriteAt kept the caller's bytes", n, err)
				}
				if !bytes.Equal(fi.stored(t), want) {
					t.Error("the store received other bytes than were written: WriteAt kept the caller's bytes")
				}
			})
		})
	}
}
