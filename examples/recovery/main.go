// Recovery: the §2.4 crash-recovery design the paper sketched but did
// not implement. A client writes a file (delayed write-back: the only
// copy of the data is in its cache), the server crashes and reboots with
// an empty state table, the client's keepalive notices the new epoch and
// re-registers its state during the grace period — and then a second
// client's read still triggers the write-back callback, proving the
// reconstructed state protects consistency.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	snfs "spritelynfs"
)

func main() {
	pm := snfs.DefaultParams()
	pm.SNFS.KeepaliveInterval = 500 * snfs.Millisecond
	world := snfs.NewWorld(snfs.SNFS, true, pm)
	reader, readerNS := world.AddSNFSClient("reader", snfs.SNFSClientOptions{})

	err := world.Run(func(p *snfs.Proc) error {
		// The writer creates a file; its 32 KB of data stay dirty in
		// the client cache.
		if err := world.NS.WriteFile(p, "/data/journal.dat", 32<<10, 8192); err != nil {
			return err
		}
		fmt.Printf("writer holds %d dirty blocks; server has seen %d write RPCs\n",
			world.SNFSCli.Cache().DirtyCount(), world.ClientOps().Get("write"))
		p.Sleep(snfs.Second) // let the keepalive learn the first epoch

		fmt.Println("\n*** server crashes ***")
		world.SNFSSrv.Crash()
		p.Sleep(2 * snfs.Second)
		fmt.Println("*** server reboots (empty state table, grace period) ***")
		world.SNFSSrv.Reboot()
		fmt.Printf("epoch now %d, in grace: %v\n", world.SNFSSrv.Epoch(), world.SNFSSrv.InGrace())

		// The writer's keepalive detects the epoch change and sends
		// reopen RPCs re-registering its dirty state.
		p.Sleep(3 * snfs.Second)
		fmt.Printf("after recovery: state table has %d entries, writer sent %d reopen RPCs\n",
			world.SNFSSrv.Table().Len(), world.ClientOps().Get("reopen"))

		// The moment of truth: a second client reads the file. The
		// recovered CLOSED-DIRTY state must call the writer back for
		// its dirty blocks first.
		n, err := readerNS.ReadFile(p, "/data/journal.dat", make([]byte, 8192))
		if err != nil {
			return err
		}
		fmt.Printf("\nreader got %d bytes (want %d)\n", n, 32<<10)
		fmt.Printf("writer served %d callbacks; writer write RPCs now %d\n",
			world.SNFSCli.CallbacksServed, world.ClientOps().Get("write"))
		if reader.Inconsistencies != 0 {
			return fmt.Errorf("spurious inconsistency warning")
		}
		if n != 32<<10 {
			return fmt.Errorf("data lost across the crash")
		}
		fmt.Println("\nconsistency survived the server crash: state rebuilt from the clients (§2.4)")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
