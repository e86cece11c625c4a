package client_test

import (
	"testing"

	"spritelynfs/internal/cache"
	"spritelynfs/internal/client"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// TestClosedFileIsLent: an open file is lent, as a cache block is. Once
// closed it is its client's again, and the next open, read or write,
// takes the same one. Under the release checker a closed file is
// poisoned and never reused instead, so every later call on it panics,
// a second Close included.
func TestClosedFileIsLent(t *testing.T) {
	for _, useSNFS := range []bool{false, true} {
		w := newWorld(1, useSNFS, 4, server.SNFSOptions{})
		var fs vfs.FS
		if useSNFS {
			fs = w.addSNFS("clientA", client.SNFSOptions{})
		} else {
			fs = w.addNFS("clientA", client.NFSOptions{})
		}
		run(t, w.k, func(p *sim.Proc) {
			writeThrough(t, p, fs, "f", fill(10, 'x'))
			f, err := fs.Open(p, "f", vfs.ReadOnly, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(p); err != nil {
				t.Fatal(err)
			}
			g, err := fs.Open(p, "f", vfs.ReadWrite, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close(p)
			if !cache.FrozenCheck {
				if g != f {
					t.Errorf("snfs=%v: the next open did not take the closed file", useSNFS)
				}
				return
			}
			if g == f {
				t.Errorf("snfs=%v: the release checker reused a closed file", useSNFS)
			}
			buf := make([]byte, 10)
			for _, call := range []struct {
				name string
				fn   func()
			}{
				{"ReadInto", func() { f.ReadInto(p, buf, 0) }},
				{"WriteAt", func() { f.WriteAt(p, 0, buf) }},
				{"Sync", func() { f.Sync(p) }},
				{"Attr", func() { f.Attr(p) }},
				{"Handle", func() { f.(interface{ Handle() proto.Handle }).Handle() }},
				{"a second Close", func() { f.Close(p) }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("snfs=%v: %s on a closed file did not panic", useSNFS, call.name)
						}
					}()
					call.fn()
				}()
			}
		})
	}
}
