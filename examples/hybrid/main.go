// Hybrid: NFS and SNFS clients sharing one hybrid server (§6.1). The
// server treats plain-NFS accesses to files under SNFS state as implicit
// opens, so an NFS client reading a file whose dirty blocks still sit in
// an SNFS client's cache forces the write-back first and sees current
// data — while the SNFS client keeps its delayed-write performance.
//
//	go run ./examples/hybrid
package main

import (
	"bytes"
	"fmt"
	"log"

	snfs "spritelynfs"
)

func main() {
	pm := snfs.DefaultParams()
	world := snfs.NewWorldOpt(snfs.SNFS, true, pm, snfs.BuildOptions{
		Server: &snfs.SNFSServerOptions{Hybrid: true},
	})
	nfsCli, nfsNS := world.AddNFSClient("nfs-host", snfs.NFSClientOptions{})

	err := world.Run(func(p *snfs.Proc) error {
		// The SNFS client writes a file; its blocks stay dirty in the
		// client cache (delayed write-back).
		payload := bytes.Repeat([]byte("spritely "), 1000)
		f, err := world.NS.Open(p, "/data/report.txt", snfs.WriteOnly|snfs.Create, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(p, 0, payload); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		fmt.Printf("SNFS client wrote %d bytes; write RPCs so far: %d (delayed)\n",
			len(payload), world.ClientOps().Get("write"))

		// The plain NFS client reads the same file through the hybrid
		// server: the implicit open forces the SNFS client's
		// write-back before the read is served.
		got, err := nfsNS.ReadFile(p, "/data/report.txt", make([]byte, 8192))
		if err != nil {
			return err
		}
		fmt.Printf("NFS client read %d bytes (want %d)\n", got, len(payload))
		if int(got) != len(payload) {
			return fmt.Errorf("hybrid consistency failed: %d != %d", got, len(payload))
		}
		fmt.Printf("SNFS client write RPCs now: %d (callback forced write-back)\n",
			world.ClientOps().Get("write"))
		fmt.Printf("callbacks served by SNFS client: %d\n", world.SNFSCli.CallbacksServed)
		fmt.Printf("NFS client issued: %v\n", nfsCli.Ops())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhybrid coexistence works: stateless and stateful clients, one server, consistent data")
}
