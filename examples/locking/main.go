// Locking: consistency is not atomicity. §2.2 — "Readers are guaranteed
// consistency with writers, provided that some other mechanism (such as
// file locking) serializes the reads and writes."
//
// Two hosts each increment a shared counter 15 times with a
// read-modify-write. Spritely NFS guarantees every read sees the latest
// committed byte — but without serialization, two hosts can still read
// the same value and both write value+1, losing an update. With the
// advisory locking extension every increment lands.
//
//	go run ./examples/locking
package main

import (
	"fmt"
	"log"

	snfs "spritelynfs"
	"spritelynfs/internal/client"
)

const perClient = 15

func increment(cp *snfs.Proc, c *client.SNFSClient, useLock bool) error {
	if useLock {
		if err := c.Lock(cp, "data/counter", true); err != nil {
			return err
		}
		defer c.Unlock(cp, "data/counter")
	}
	f, err := c.Open(cp, "data/counter", snfs.ReadWrite, 0)
	if err != nil {
		return err
	}
	defer f.Close(cp)
	data, err := f.ReadAt(cp, 0, 1)
	if err != nil || len(data) != 1 {
		return fmt.Errorf("read: %v", err)
	}
	cp.Sleep(40 * snfs.Millisecond) // "compute" between read and write
	_, err = f.WriteAt(cp, 0, []byte{data[0] + 1})
	return err
}

func runRace(useLock bool) (final int, err error) {
	pm := snfs.DefaultParams()
	world := snfs.NewWorld(snfs.SNFS, true, pm)
	b, _ := world.AddSNFSClient("hostB", snfs.SNFSClientOptions{})

	err = world.Run(func(p *snfs.Proc) error {
		if err := world.NS.WriteFile(p, "/data/counter", 1, 1); err != nil {
			return err
		}
		world.SNFSCli.SyncPass(p)
		hosts := []*client.SNFSClient{world.SNFSCli, b}
		err := world.RunEach(p, len(hosts), "incr", func(cp *snfs.Proc, i int) error {
			for n := 0; n < perClient; n++ {
				if err := increment(cp, hosts[i], useLock); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		f, err := world.NS.Open(p, "/data/counter", snfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		defer f.Close(p)
		data, err := f.ReadAt(p, 0, 1)
		if err != nil {
			return err
		}
		final = int(data[0])
		return nil
	})
	return final, err
}

func main() {
	fmt.Printf("two hosts x %d read-modify-write increments of one shared counter\n\n", perClient)
	for _, useLock := range []bool{false, true} {
		final, err := runRace(useLock)
		if err != nil {
			log.Fatal(err)
		}
		mode := "no locks   "
		if useLock {
			mode = "with locks "
		}
		verdict := fmt.Sprintf("%d updates LOST", 2*perClient-final)
		if final == 2*perClient {
			verdict = "every update landed"
		}
		fmt.Printf("%s final counter = %2d / %d   — %s\n", mode, final, 2*perClient, verdict)
	}
	fmt.Println("\nSNFS makes every read current; only locking makes read-modify-write atomic (§2.2).")
}
