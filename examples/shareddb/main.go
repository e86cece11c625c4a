// Shareddb: why there were no shared-database applications on NFS.
//
// §2.3: "the weakness of NFS consistency may be responsible for the lack
// of shared-database applications." Two hosts run a tiny record store on
// one shared file: host A updates records, host B reads them back while
// holding the file open (as a database would). Under NFS the reader's
// cache serves stale records long after commits; under Spritely NFS the
// file becomes write-shared, caching turns off, and every lookup sees
// the latest committed record.
//
//	go run ./examples/shareddb
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	snfs "spritelynfs"
)

const (
	recordSize = 64
	records    = 16
)

// putRecord writes record id with a payload version stamp.
func putRecord(p *snfs.Proc, f snfs.File, id int, version uint32) error {
	rec := make([]byte, recordSize)
	binary.BigEndian.PutUint32(rec, uint32(id))
	binary.BigEndian.PutUint32(rec[4:], version)
	_, err := f.WriteAt(p, int64(id*recordSize), rec)
	return err
}

// getRecord reads record id and returns its version stamp.
func getRecord(p *snfs.Proc, f snfs.File, id int) (uint32, error) {
	var rec [recordSize]byte
	n, err := f.ReadInto(p, rec[:], int64(id*recordSize))
	if err != nil {
		return 0, err
	}
	if n < 8 {
		return 0, nil
	}
	return binary.BigEndian.Uint32(rec[4:]), nil
}

func runDB(pr snfs.Proto) (staleReads, totalReads int, err error) {
	pm := snfs.DefaultParams()
	world := snfs.NewWorld(pr, true, pm)
	var readerNS *snfs.Namespace
	switch pr {
	case snfs.NFS:
		_, readerNS = world.AddNFSClient("reader", snfs.NFSClientOptions{})
	case snfs.SNFS:
		_, readerNS = world.AddSNFSClient("reader", snfs.SNFSClientOptions{})
	}

	err = world.Run(func(p *snfs.Proc) error {
		// The "DBA" host initializes the database file.
		w, err := world.NS.Open(p, "/data/records.db", snfs.ReadWrite|snfs.Create, 0o644)
		if err != nil {
			return err
		}
		for id := 0; id < records; id++ {
			if err := putRecord(p, w, id, 1); err != nil {
				return err
			}
		}
		if err := w.Sync(p); err != nil {
			return err
		}

		// The reader host opens the database and keeps it open, as a
		// long-running database process would.
		r, err := readerNS.Open(p, "/data/records.db", snfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		defer r.Close(p)
		// Warm the reader's view.
		for id := 0; id < records; id++ {
			if _, err := getRecord(p, r, id); err != nil {
				return err
			}
		}

		// Commit/lookup rounds: the writer bumps a record's version,
		// then the reader looks it up.
		for round := uint32(2); round <= 11; round++ {
			id := int(round) % records
			if err := putRecord(p, w, id, round); err != nil {
				return err
			}
			if err := w.Sync(p); err != nil { // the commit
				return err
			}
			p.Sleep(100 * snfs.Millisecond)
			got, err := getRecord(p, r, id)
			if err != nil {
				return err
			}
			totalReads++
			if got != round {
				staleReads++
			}
		}
		return w.Close(p)
	})
	return staleReads, totalReads, err
}

func main() {
	fmt.Printf("a tiny record store shared by two hosts: 10 commit/lookup rounds\n\n")
	for _, pr := range []snfs.Proto{snfs.NFS, snfs.SNFS} {
		stale, total, err := runDB(pr)
		if err != nil {
			log.Fatalf("%v: %v", pr, err)
		}
		verdict := "every lookup saw the committed record"
		if stale > 0 {
			verdict = "lookups served STALE records"
		}
		fmt.Printf("%-5v  stale lookups %d/%d   — %s\n", pr, stale, total, verdict)
	}
	fmt.Println("\n§2.3: \"the weakness of NFS consistency may be responsible for the")
	fmt.Println("lack of shared-database applications\" — and this is what it looks like.")
}
