package client_test

import (
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// TestReaddirSettlesDelayedClose: a listing of a directory whose last
// close was delayed (§6.2) sends the CLOSE it owes before its own OPEN,
// so once the listing's CLOSE is in the server holds no open of it for
// this client. The listing's OPEN reply would otherwise clear the delayed
// close from the client's record, and the owed CLOSE would never be sent:
// the server would keep the client as a reader for good.
func TestReaddirSettlesDelayedClose(t *testing.T) {
	w := newWorld(1, true, 4, server.SNFSOptions{})
	c := w.addSNFS("clientA", client.SNFSOptions{DelayedClose: true})
	run(t, w.k, func(p *sim.Proc) {
		if err := c.Mkdir(p, "d", 0o755); err != nil {
			t.Fatal(err)
		}
		writeThrough(t, p, c, "d/x", fill(10, 'x'))
		dir, err := c.Open(p, "d", vfs.ReadOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Close(p); err != nil { // delayed: the server still holds the open
			t.Fatal(err)
		}
		if ents, err := c.Readdir(p, "d"); err != nil || len(ents) != 1 {
			t.Fatalf("readdir: %v, %v", ents, err)
		}
		attr, err := c.Stat(p, "d")
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(60 * sim.Second) // past the update daemon's sweep of idle delayed closes
		for _, e := range w.snfs.Table().Snapshot() {
			if e.Handle.Ino != attr.Fileid {
				continue
			}
			for _, cl := range e.Clients {
				if cl.Readers != 0 || cl.Writers != 0 {
					t.Errorf("the server still holds %+v open for the directory", cl)
				}
			}
		}
	})
}

// TestTruncatingOpenNeverReuses: a read open that truncates empties the
// file whether or not its last close was delayed: it does not reuse the
// open a delayed close left at the server, which would skip the truncate.
func TestTruncatingOpenNeverReuses(t *testing.T) {
	for _, delayed := range []bool{false, true} {
		w := newWorld(1, true, 4, server.SNFSOptions{})
		c := w.addSNFS("clientA", client.SNFSOptions{DelayedClose: delayed})
		run(t, w.k, func(p *sim.Proc) {
			writeThrough(t, p, c, "f", fill(100, 'f'))
			readBack(t, p, c, "f", 100) // its close is delayed when the option is on
			f, err := c.Open(p, "f", vfs.ReadOnly|vfs.Truncate, 0)
			if err != nil {
				t.Fatal(err)
			}
			attr, err := f.Attr(p)
			if err != nil || attr.Size != 0 {
				t.Errorf("delayed close %v: a truncating open left %d bytes (%v)", delayed, attr.Size, err)
			}
			if err := f.Close(p); err != nil {
				t.Error(err)
			}
			if c.LocalReopens != 0 {
				t.Errorf("delayed close %v: %d opens reused a delayed close", delayed, c.LocalReopens)
			}
		})
	}
}
