package client_test

import (
	"strings"
	"testing"

	"spritelynfs/internal/audit"
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
	Attach(in trace.Instruments)
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
			c.Attach(trace.Instruments{Spans: r})
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

// handledFS fails the test when an Open returns a file that cannot name
// its handle (audit.Handled): the auditor passes such a file through
// unwitnessed.
type handledFS struct {
	vfs.FS
	t *testing.T
}

func (h handledFS) Open(p *sim.Proc, path string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	f, err := h.FS.Open(p, path, flags, mode)
	if _, ok := f.(audit.Handled); err == nil && !ok {
		h.t.Errorf("Open(%q) returned a %T, which is not audit.Handled", path, f)
	}
	return f, err
}

// rpcsPerCall runs calls in order and returns, for each, the procedures
// the endpoint traced by tr sent while it ran, in order, space-separated.
func rpcsPerCall(t *testing.T, k *sim.Kernel, tr *trace.Tracer, calls []vfsCall) []string {
	t.Helper()
	got := make([]string, len(calls))
	run(t, k, func(p *sim.Proc) {
		for i, sc := range calls {
			before := tr.Total()
			if err := sc.call(p); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			var procs []string
			for _, ev := range tr.Filter(trace.RPCCall) {
				if ev.Seq >= before {
					procs = append(procs, strings.Fields(ev.Detail)[2]) // "-> server <proc> xid=…"
				}
			}
			got[i] = strings.Join(procs, " ")
		}
	})
	return got
}

// checkRPCs compares the procedures each call sent with the pinned ones.
func checkRPCs(t *testing.T, calls []vfsCall, got, want []string) {
	t.Helper()
	if len(want) != len(calls) {
		t.Fatalf("%d pinned rows for %d calls; got:\n%q", len(want), len(calls), got)
	}
	for i, sc := range calls {
		if got[i] != want[i] {
			t.Errorf("%s sent [%s], pinned [%s]", sc.name, got[i], want[i])
		}
	}
}

// TestEverySyscallSendsItsRPCs pins, for each protocol, the procedures
// every vfs.FS and vfs.File call of vfsCalls sends, in order, as the
// client endpoint's tracer records them, and requires every file Open
// returns to name its handle (audit.Handled).
func TestEverySyscallSendsItsRPCs(t *testing.T) {
	// One row per call of vfsCalls: Mkdir, Open, File.WriteAt, File.Sync,
	// File.ReadAt, File.Attr, File.Close, Stat, Readdir, Link, Symlink,
	// Readlink, Rename, the three Removes, SyncAll and Rmdir. The 100-byte
	// write is a partial block: NFS holds it until the fsync, RFS sends it
	// at once, SNFS delays it until the fsync and sends no data at close.
	want := map[string][]string{
		"NFS":  {"mkdir", "lookup create", "", "write", "", "", "", "lookup", "lookup getattr readdir", "lookup link", "symlink", "lookup readlink", "rename", "lookup lookup remove", "lookup remove", "lookup remove", "", "rmdir"},
		"SNFS": {"mkdir", "lookup create open", "", "write", "", "", "close", "lookup", "lookup open readdir close", "lookup link", "symlink", "lookup readlink", "rename", "lookup lookup remove", "lookup remove", "lookup remove", "", "rmdir"},
		"RFS":  {"mkdir", "lookup create open", "write", "", "", "", "close", "lookup", "lookup open readdir close", "lookup link", "symlink", "lookup readlink", "rename", "lookup lookup remove", "lookup remove", "lookup remove", "", "rmdir"},
	}
	for _, pr := range protoClients {
		t.Run(pr.name, func(t *testing.T) {
			k, c := pr.mount()
			tr := trace.New(k.Now, 0)
			c.Endpoint().Tracer = tr
			calls := vfsCalls(handledFS{c, t})
			checkRPCs(t, calls, rpcsPerCall(t, k, tr, calls), want[pr.name])
		})
	}
}

// TestSNFSDelayedCloseSendsNoRPC pins the §6.2 delayed close: the final
// close of a file read with caching on sends nothing, a read open of it
// reuses the server's open with no OPEN, and an open for writing settles
// the owed CLOSE before its own OPEN.
func TestSNFSDelayedCloseSendsNoRPC(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("client", client.SNFSOptions{DelayedClose: true})
	tr := trace.New(w.k.Now, 0)
	c.Endpoint().Tracer = tr
	fs := handledFS{c, t}
	var f vfs.File
	open := func(flags vfs.Flags) func(p *sim.Proc) error {
		return func(p *sim.Proc) (err error) { f, err = fs.Open(p, "f", flags, 0o644); return err }
	}
	closeF := func(p *sim.Proc) error { return f.Close(p) }
	calls := []vfsCall{
		{"Open (create)", "", open(vfs.WriteOnly | vfs.Create)},
		{"File.WriteAt", "", func(p *sim.Proc) error { _, err := f.WriteAt(p, 0, fill(100, 'd')); return err }},
		{"File.Close (writer)", "", closeF},
		{"Open (read)", "", open(vfs.ReadOnly)},
		{"File.Close (delayed)", "", closeF},
		{"Open (read, reuse)", "", open(vfs.ReadOnly)},
		{"File.ReadAt", "", func(p *sim.Proc) error { _, err := f.ReadAt(p, 0, 100); return err }},
		{"File.Close (delayed again)", "", closeF},
		{"Open (write, settles)", "", open(vfs.WriteOnly)},
		{"File.Close (writer, final)", "", closeF},
	}
	checkRPCs(t, calls, rpcsPerCall(t, w.k, tr, calls), []string{
		"create open", "", "close", "lookup open", "", "lookup", "", "", "lookup close open", "close",
	})
	if c.LocalReopens != 1 {
		t.Errorf("%d local reopens, want 1", c.LocalReopens)
	}
}

// TestSNFSWriteSharedGoesDirect pins the uncachable arm (§4.2.1): once a
// second client opens a file for writing, the first client's reads and
// writes go straight to the server as READ and WRITE, its attributes are
// fetched every time, and its delayed write went home in the callback.
func TestSNFSWriteSharedGoesDirect(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	a := w.addSNFS("a", client.SNFSOptions{})
	b := w.addSNFS("b", client.SNFSOptions{})
	tr := trace.New(w.k.Now, 0)
	a.Endpoint().Tracer = tr // only a's calls are traced
	fa, fb := handledFS{a, t}, handledFS{b, t}
	var f, g vfs.File
	calls := []vfsCall{
		{"a Open (create)", "", func(p *sim.Proc) (err error) { f, err = fa.Open(p, "f", vfs.ReadWrite|vfs.Create, 0o644); return err }},
		{"a File.WriteAt (delayed)", "", func(p *sim.Proc) error { _, err := f.WriteAt(p, 0, fill(100, 'a')); return err }},
		{"b Open (write: write-shared)", "", func(p *sim.Proc) (err error) { g, err = fb.Open(p, "f", vfs.ReadWrite, 0); return err }},
		{"a File.ReadAt (direct)", "", func(p *sim.Proc) error { _, err := f.ReadAt(p, 0, 100); return err }},
		{"a File.WriteAt (direct)", "", func(p *sim.Proc) error { _, err := f.WriteAt(p, 100, fill(100, 'A')); return err }},
		{"a File.Attr", "", func(p *sim.Proc) error { _, err := f.Attr(p); return err }},
		{"a File.Close", "", func(p *sim.Proc) error { return f.Close(p) }},
		{"b File.Close", "", func(p *sim.Proc) error { return g.Close(p) }},
	}
	checkRPCs(t, calls, rpcsPerCall(t, w.k, tr, calls), []string{
		"create open", "", "write", "read", "write", "getattr", "close", "",
	})
}
