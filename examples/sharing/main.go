// Sharing: the consistency demonstration at the heart of the paper.
//
// Two client hosts access one file. Under NFS, a reader that holds the
// file open keeps serving stale cached data until its next attribute
// probe (up to minutes later). Under Spritely NFS, the moment a second
// host opens the file for writing, the server calls the reader back and
// disables caching for both — every read sees the latest write.
//
//	go run ./examples/sharing
package main

import (
	"fmt"
	"log"

	snfs "spritelynfs"
)

func main() {
	fmt.Println("== NFS: the staleness window ==")
	if err := demoNFS(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("== Spritely NFS: guaranteed consistency ==")
	if err := demoSNFS(); err != nil {
		log.Fatal(err)
	}
}

func demoNFS() error {
	pm := snfs.DefaultParams()
	world := snfs.NewWorld(snfs.NFS, true, pm)
	writerCli, writerNS := world.AddNFSClient("writer", snfs.NFSClientOptions{})
	_ = writerCli

	return world.Run(func(p *snfs.Proc) error {
		readerNS := world.NS
		if err := writerNS.WriteFile(p, "/data/shared.txt", 64, 64); err != nil {
			return err
		}
		f, err := readerNS.Open(p, "/data/shared.txt", snfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		defer f.Close(p)
		buf := make([]byte, 256)
		first, _ := f.ReadInto(p, buf[:64], 0)
		fmt.Printf("  reader opens and reads:        %d bytes (version 1)\n", first)

		// The writer overwrites while the reader holds the file open.
		if err := writerNS.WriteFile(p, "/data/shared.txt", 128, 128); err != nil {
			return err
		}
		fmt.Println("  writer rewrites the file (128 bytes, version 2)")

		stale, _ := f.ReadInto(p, buf, 0)
		fmt.Printf("  reader re-reads immediately:   %d bytes  <-- STALE (cached)\n", stale)

		p.Sleep(200 * snfs.Second)
		fresh, _ := f.ReadInto(p, buf, 0)
		fmt.Printf("  reader re-reads after 200s:    %d bytes  (probe finally noticed)\n", fresh)
		return nil
	})
}

func demoSNFS() error {
	pm := snfs.DefaultParams()
	world := snfs.NewWorld(snfs.SNFS, true, pm)
	writerCli, writerNS := world.AddSNFSClient("writer", snfs.SNFSClientOptions{})

	return world.Run(func(p *snfs.Proc) error {
		readerNS := world.NS
		if err := writerNS.WriteFile(p, "/data/shared.txt", 64, 64); err != nil {
			return err
		}
		f, err := readerNS.Open(p, "/data/shared.txt", snfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		defer f.Close(p)
		buf := make([]byte, 256)
		first, _ := f.ReadInto(p, buf[:64], 0)
		fmt.Printf("  reader opens and reads:        %d bytes (version 1)\n", first)

		// The writer opens for write WHILE the reader holds the file:
		// the server makes the file write-shared, calls the reader
		// back, and everyone stops caching.
		g, err := writerNS.Open(p, "/data/shared.txt", snfs.WriteOnly|snfs.Truncate, 0)
		if err != nil {
			return err
		}
		if _, err := g.WriteAt(p, 0, make([]byte, 128)); err != nil {
			return err
		}
		fmt.Println("  writer opens for write and writes 128 bytes (write-shared now)")

		fresh, _ := f.ReadInto(p, buf, 0)
		fmt.Printf("  reader re-reads immediately:   %d bytes  <-- CURRENT (no staleness)\n", fresh)
		fmt.Printf("  callbacks served by reader:    %d\n", world.SNFSCli.CallbacksServed)
		fmt.Printf("  server write-share transitions: %d\n", world.SNFSSrv.Table().Stats().WriteShares)
		_ = writerCli
		return g.Close(p)
	})
}
