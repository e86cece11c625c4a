// Quickstart: build a Spritely NFS testbed, do some file I/O through the
// Unix-like namespace, and look at what crossed the wire.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	snfs "spritelynfs"
)

func main() {
	pm := snfs.DefaultParams()
	world := snfs.NewWorld(snfs.SNFS, true, pm)

	err := world.Run(func(p *snfs.Proc) error {
		ns := world.NS

		// Create a directory and a file; writes are delayed at the
		// client (no write RPCs yet).
		if err := ns.Mkdir(p, "/data/project", 0o755); err != nil {
			return err
		}
		f, err := ns.Open(p, "/data/project/notes.txt", snfs.WriteOnly|snfs.Create, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(p, 0, []byte("spritely nfs: consistency without write-through\n")); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		fmt.Printf("after write+close:  %v\n", world.ClientOps())

		// Read it back — served from the client cache, which survives
		// the close because the server knows nobody else has the file.
		g, err := ns.Open(p, "/data/project/notes.txt", snfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		n, err := g.ReadInto(p, buf, 0)
		if err != nil {
			return err
		}
		g.Close(p)
		fmt.Printf("read back %d bytes: %q\n", n, string(buf[:n]))
		fmt.Printf("after reopen+read:  %v\n", world.ClientOps())

		// The update daemon (or an explicit sync) pushes the delayed
		// blocks to the server.
		world.SNFSCli.SyncPass(p)
		fmt.Printf("after sync:         %v\n", world.ClientOps())

		// Server-side consistency traffic and state for the whole run.
		ops := world.SNFSSrv.Ops()
		fmt.Printf("server state table: opens=%d closes=%d callbacks=%d versionBumps=%d\n",
			ops.Get("open"), ops.Get("close"), ops.Get("callback"), world.SNFSSrv.Table().Stats().VersionBumps)
		fmt.Printf("simulated elapsed:  %v\n", p.Now())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
