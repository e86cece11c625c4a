package client_test

import (
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// protoClient is a protocol client as the per-syscall tests drive it.
type protoClient interface {
	vfs.FS
	Endpoint() *rpc.Endpoint
	SetSpans(r *span.Recorder)
}

// protoClients builds one client of each protocol, named "client", over
// a server of its own.
var protoClients = []struct {
	name  string
	mount func() (*sim.Kernel, protoClient)
}{
	{"NFS", func() (*sim.Kernel, protoClient) {
		w := newWorld(1, false, 4, server.SNFSOptions{})
		return w.k, w.addNFS("client", client.NFSOptions{})
	}},
	{"SNFS", func() (*sim.Kernel, protoClient) {
		w := newWorld(1, true, 4, server.SNFSOptions{})
		return w.k, w.addSNFS("client", client.SNFSOptions{})
	}},
	{"RFS", func() (*sim.Kernel, protoClient) {
		w, _ := newRFSWorld(1)
		return w.k, w.addRFS("client")
	}},
}

// vfsCall is one call of a vfs.FS or vfs.File method; root is the name
// of the span it roots.
type vfsCall struct {
	name, root string
	call       func(p *sim.Proc) error
}

// vfsCalls is a sequence that calls every vfs.FS and vfs.File method of
// fs at least once, the File's on a file the sequence opens.
func vfsCalls(fs vfs.FS) []vfsCall {
	var f vfs.File
	return []vfsCall{
		{"Mkdir", "mkdir", func(p *sim.Proc) error { return fs.Mkdir(p, "d", 0o755) }},
		{"Open", "open", func(p *sim.Proc) (err error) {
			f, err = fs.Open(p, "d/f", vfs.ReadWrite|vfs.Create, 0o644)
			return err
		}},
		{"File.WriteAt", "write", func(p *sim.Proc) error { _, err := f.WriteAt(p, 0, fill(100, 'w')); return err }},
		{"File.Sync", "sync", func(p *sim.Proc) error { return f.Sync(p) }},
		{"File.ReadAt", "read", func(p *sim.Proc) error { _, err := f.ReadAt(p, 0, 100); return err }},
		{"File.Attr", "attr", func(p *sim.Proc) error { _, err := f.Attr(p); return err }},
		{"File.Close", "close", func(p *sim.Proc) error { return f.Close(p) }},
		{"Stat", "stat", func(p *sim.Proc) error { _, err := fs.Stat(p, "d/f"); return err }},
		{"Readdir", "readdir", func(p *sim.Proc) error { _, err := fs.Readdir(p, "d"); return err }},
		{"Link", "link", func(p *sim.Proc) error { return fs.Link(p, "d/f", "d/g") }},
		{"Symlink", "symlink", func(p *sim.Proc) error { return fs.Symlink(p, "f", "d/s") }},
		{"Readlink", "readlink", func(p *sim.Proc) error { _, err := fs.Readlink(p, "d/s"); return err }},
		{"Rename", "rename", func(p *sim.Proc) error { return fs.Rename(p, "d/g", "d/h") }},
		{"Remove (a link remains)", "remove", func(p *sim.Proc) error { return fs.Remove(p, "d/h") }},
		{"Remove (last link)", "remove", func(p *sim.Proc) error { return fs.Remove(p, "d/f") }},
		{"Remove (symlink)", "remove", func(p *sim.Proc) error { return fs.Remove(p, "d/s") }},
		{"SyncAll", "syncall", func(p *sim.Proc) error { fs.SyncAll(p); return nil }},
		{"Rmdir", "rmdir", func(p *sim.Proc) error { return fs.Rmdir(p, "d") }},
	}
}

// TestEverySyscallMintsOneOp drives every vfs.FS and vfs.File method on
// each protocol and checks the causal-op contract: the call leaves the
// process tagged with a fresh, non-zero op ID, and the first RPC the call
// issues carries it. A method that mints none inherits the previous
// syscall's ID, and the span recorder then files two root spans of one
// client under one key.
func TestEverySyscallMintsOneOp(t *testing.T) {
	for _, pr := range protoClients {
		t.Run(pr.name, func(t *testing.T) {
			k, c := pr.mount()
			tr := trace.New(k.Now, 0)
			c.Endpoint().Tracer = tr
			run(t, k, func(p *sim.Proc) {
				seen := map[uint64]string{}
				for _, sc := range vfsCalls(c) {
					before := tr.Total()
					if err := sc.call(p); err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
					op := p.Op()
					if prev, dup := seen[op]; op == 0 || dup {
						t.Errorf("%s left op %d on the process (0 = none; also left by %q)", sc.name, op, prev)
					}
					seen[op] = sc.name
					for _, ev := range tr.Filter(trace.RPCCall) {
						if ev.Seq >= before {
							if ev.Op != op {
								t.Errorf("%s: first RPC %q carries op %d, the call minted %d", sc.name, ev.Detail, ev.Op, op)
							}
							break
						}
					}
				}
			})
		})
	}
}

// TestEverySyscallRootsOneSpan drives every vfs.FS and vfs.File method on
// each protocol with spans armed: each call roots exactly one Syscall
// span, named for the method, on the client's endpoint address and keyed
// by the op the call minted.
func TestEverySyscallRootsOneSpan(t *testing.T) {
	for _, pr := range protoClients {
		t.Run(pr.name, func(t *testing.T) {
			k, c := pr.mount()
			r := span.NewRecorder(k.Now, 64)
			c.SetSpans(r)
			calls := vfsCalls(c)
			ops := make([]uint64, len(calls))
			run(t, k, func(p *sim.Proc) {
				for i, sc := range calls {
					if err := sc.call(p); err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
					ops[i] = p.Op()
				}
			})
			if got := r.Breakdown().Ops; got != int64(len(calls)) {
				t.Errorf("%d syscall roots, want one per call: %d", got, len(calls))
			}
			roots := map[uint64][]span.SlowOp{}
			for _, so := range r.SlowOps() {
				if so.Kind == "syscall" {
					roots[so.Op] = append(roots[so.Op], so)
				}
			}
			host := string(c.Endpoint().Addr())
			for i, sc := range calls {
				rs := roots[ops[i]]
				if len(rs) != 1 {
					t.Errorf("%s: %d roots keyed by its op %d, want 1", sc.name, len(rs), ops[i])
					continue
				}
				if rs[0].Name != sc.root || rs[0].Host != host {
					t.Errorf("%s: root %q on %q, want %q on %q", sc.name, rs[0].Name, rs[0].Host, sc.root, host)
				}
			}
		})
	}
}
