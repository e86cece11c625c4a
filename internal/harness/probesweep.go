package harness

import (
	"encoding/binary"
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/vfs"
)

// ProbeSweep quantifies §2.1's compromise: "The interval between checks
// is a compromise between performance (frequent checking loads the
// server and delays the client) and consistency (insufficiently frequent
// checking may mean that a client uses stale data from its cache)."
//
// A reader holds a file open and polls it twice a second for a minute
// while a writer updates it every five seconds. The NFS attribute-probe
// interval is swept: short intervals buy freshness with getattr traffic,
// long intervals buy cheap (stale) reads. The SNFS row shows the escape
// from the trade-off: zero probes AND zero staleness.
func ProbeSweep(pm Params) (*stats.Table, error) {
	t := stats.NewTable("§2.1: the probe-interval compromise (reader polls 2/s for 60s; writer updates every 5s)",
		"Configuration", "probe RPCs", "stale polls", "fresh polls")

	intervals := []sim.Duration{sim.Second, 3 * sim.Second, 10 * sim.Second, 30 * sim.Second}
	for _, iv := range intervals {
		pmv := pm
		pmv.NFS.ProbeMin = iv
		pmv.NFS.ProbeMax = iv // pin the adaptive range to one value
		probes, stale, fresh, err := probeRun(NFS, pmv)
		if err != nil {
			return nil, fmt.Errorf("probe sweep %v: %w", iv, err)
		}
		t.AddRow(fmt.Sprintf("NFS, probe every %v", iv),
			fmt.Sprintf("%d", probes), fmt.Sprintf("%d", stale), fmt.Sprintf("%d", fresh))
	}
	probes, stale, fresh, err := probeRun(SNFS, pm)
	if err != nil {
		return nil, err
	}
	t.AddRow("SNFS (callbacks, no probes)",
		fmt.Sprintf("%d", probes), fmt.Sprintf("%d", stale), fmt.Sprintf("%d", fresh))
	return t, nil
}

func probeRun(pr Proto, pm Params) (probes int64, stale, fresh int, err error) {
	if pr != NFS && pr != SNFS {
		return 0, 0, 0, fmt.Errorf("probe sweep needs a remote protocol")
	}
	w := Build(pr, true, pm)
	reader := w.addClient("reader", pm.clientHost(pr))
	readerNS, readerOps := reader.NS, reader.Base.Ops().Get

	err = w.Run(func(p *sim.Proc) error {
		// Writer initializes and keeps updating a version stamp.
		wf, err := w.NS.Open(p, "/data/stamp", vfs.ReadWrite|vfs.Create, 0o644)
		if err != nil {
			return err
		}
		version := uint32(1)
		writeStamp := func(wp *sim.Proc) error {
			buf := make([]byte, 4096)
			binary.BigEndian.PutUint32(buf, version)
			if _, err := wf.WriteAt(wp, 0, buf); err != nil {
				return err
			}
			return wf.Sync(wp)
		}
		if err := writeStamp(p); err != nil {
			return err
		}
		done := false
		w.K.Go("writer", func(wp *sim.Proc) {
			for !done {
				wp.Sleep(5 * sim.Second)
				version++
				if err := writeStamp(wp); err != nil {
					return
				}
			}
		})

		rf, err := readerNS.Open(p, "/data/stamp", vfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		defer rf.Close(p)
		base := readerOps("getattr")
		buf := make([]byte, 4096)
		for i := 0; i < 120; i++ {
			p.Sleep(500 * sim.Millisecond)
			n, err := rf.ReadInto(p, buf, 0)
			if err != nil {
				return err
			}
			got := uint32(0)
			if n >= 4 {
				got = binary.BigEndian.Uint32(buf)
			}
			if got == version {
				fresh++
			} else {
				stale++
			}
		}
		probes = readerOps("getattr") - base
		done = true
		return nil
	})
	return probes, stale, fresh, err
}
