package client_test

import (
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// TestEverySyscallMintsOneOp drives every vfs.FS and vfs.File method on
// each protocol and checks the causal-op contract: the call leaves the
// process tagged with a fresh, non-zero op ID, and the first RPC the call
// issues carries it. A method that mints none inherits the previous
// syscall's ID, and the span recorder then files two root spans of one
// client under one key.
func TestEverySyscallMintsOneOp(t *testing.T) {
	type mount struct {
		k  *sim.Kernel
		fs vfs.FS
		ep *rpc.Endpoint
	}
	protos := []struct {
		name  string
		mount func() mount
	}{
		{"NFS", func() mount {
			w := newWorld(1, false, 4, server.SNFSOptions{})
			c := w.addNFS("client", client.NFSOptions{})
			return mount{w.k, c, c.Endpoint()}
		}},
		{"SNFS", func() mount {
			w := newWorld(1, true, 4, server.SNFSOptions{})
			c := w.addSNFS("client", client.SNFSOptions{})
			return mount{w.k, c, c.Endpoint()}
		}},
		{"RFS", func() mount {
			w, _ := newRFSWorld(1)
			c := w.addRFS("client")
			return mount{w.k, c, c.Endpoint()}
		}},
	}
	for _, pr := range protos {
		t.Run(pr.name, func(t *testing.T) {
			m := pr.mount()
			tr := trace.New(m.k.Now, 0)
			m.ep.Tracer = tr
			var f vfs.File
			calls := []struct {
				name string
				call func(p *sim.Proc) error
			}{
				{"Mkdir", func(p *sim.Proc) error { return m.fs.Mkdir(p, "d", 0o755) }},
				{"Open", func(p *sim.Proc) (err error) {
					f, err = m.fs.Open(p, "d/f", vfs.ReadWrite|vfs.Create, 0o644)
					return err
				}},
				{"File.WriteAt", func(p *sim.Proc) error { _, err := f.WriteAt(p, 0, fill(100, 'w')); return err }},
				{"File.Sync", func(p *sim.Proc) error { return f.Sync(p) }},
				{"File.ReadAt", func(p *sim.Proc) error { _, err := f.ReadAt(p, 0, 100); return err }},
				{"File.Attr", func(p *sim.Proc) error { _, err := f.Attr(p); return err }},
				{"File.Close", func(p *sim.Proc) error { return f.Close(p) }},
				{"Stat", func(p *sim.Proc) error { _, err := m.fs.Stat(p, "d/f"); return err }},
				{"Readdir", func(p *sim.Proc) error { _, err := m.fs.Readdir(p, "d"); return err }},
				{"Link", func(p *sim.Proc) error { return m.fs.Link(p, "d/f", "d/g") }},
				{"Symlink", func(p *sim.Proc) error { return m.fs.Symlink(p, "f", "d/s") }},
				{"Readlink", func(p *sim.Proc) error { _, err := m.fs.Readlink(p, "d/s"); return err }},
				{"Rename", func(p *sim.Proc) error { return m.fs.Rename(p, "d/g", "d/h") }},
				{"Remove (a link remains)", func(p *sim.Proc) error { return m.fs.Remove(p, "d/h") }},
				{"Remove (last link)", func(p *sim.Proc) error { return m.fs.Remove(p, "d/f") }},
				{"Remove (symlink)", func(p *sim.Proc) error { return m.fs.Remove(p, "d/s") }},
				{"SyncAll", func(p *sim.Proc) error { m.fs.SyncAll(p); return nil }},
				{"Rmdir", func(p *sim.Proc) error { return m.fs.Rmdir(p, "d") }},
			}
			run(t, m.k, func(p *sim.Proc) {
				seen := map[uint64]string{}
				for _, c := range calls {
					before := tr.Total()
					if err := c.call(p); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					op := p.Op()
					if prev, dup := seen[op]; op == 0 || dup {
						t.Errorf("%s left op %d on the process (0 = none; also left by %q)", c.name, op, prev)
					}
					seen[op] = c.name
					for _, ev := range tr.Filter(trace.RPCCall) {
						if ev.Seq >= before {
							if ev.Op != op {
								t.Errorf("%s: first RPC %q carries op %d, the call minted %d", c.name, ev.Detail, ev.Op, op)
							}
							break
						}
					}
				}
			})
		})
	}
}
