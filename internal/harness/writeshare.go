package harness

import (
	"bytes"
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/vfs"
)

// The write-sharing experiment quantifies the trade the paper states up
// front (§5): "In the write-shared case, SNFS disables the client cache
// and so performs much worse than NFS — but much more correctly."
//
// A writer host rewrites a tag block at a fixed period while a reader
// host, holding the file open, polls it. Under NFS the reader's cache
// serves stale tags until a probe fires; under SNFS the file is
// write-shared, every read goes to the server, and no read is ever
// stale.

// WriteShareResult is the measurement for one protocol.
type WriteShareResult struct {
	Proto      Proto
	Reads      int // reader poll operations performed
	StaleReads int // polls that returned an out-of-date tag
	ReaderRPCs int64
	// MeanReadLatency is the average poll latency (cache hits are
	// nearly free; server round trips are not).
	MeanReadLatency sim.Duration
}

// RunWriteShare measures one protocol's behaviour under concurrent
// write sharing.
func RunWriteShare(pr Proto, pm Params) (WriteShareResult, error) {
	if pr == Local {
		return WriteShareResult{}, fmt.Errorf("write-share experiment needs a remote protocol")
	}
	w := Build(pr, true, pm)

	reader := w.addClient("reader", pm.clientHost(pr))
	readerNS, readerOps := reader.NS, reader.Base.Ops().Total

	const (
		polls       = 50
		pollPeriod  = 200 * sim.Millisecond
		writePeriod = 400 * sim.Millisecond
		blockLen    = 512
	)
	res := WriteShareResult{Proto: pr}
	tagBlock := func(tag byte) []byte {
		b := make([]byte, blockLen)
		for i := range b {
			b[i] = tag
		}
		return b
	}

	err := w.Run(func(p *sim.Proc) error {
		// The writer host creates the file and keeps rewriting it.
		currentTag := byte(0)
		wf, err := w.NS.Open(p, "/data/shared", vfs.ReadWrite|vfs.Create|vfs.Truncate, 0o644)
		if err != nil {
			return err
		}
		if _, err := wf.WriteAt(p, 0, tagBlock(currentTag)); err != nil {
			return err
		}
		writerDone := false
		w.K.Go("writer", func(wp *sim.Proc) {
			for !writerDone {
				wp.Sleep(writePeriod)
				// The tag becomes current only once the write
				// has committed (the consistency guarantee is
				// about committed data).
				next := currentTag + 1
				if _, err := wf.WriteAt(wp, 0, tagBlock(next)); err != nil {
					return
				}
				currentTag = next
			}
		})

		// The reader host polls with the file held open (the exact
		// situation NFS's probe scheme cannot make consistent). The
		// polls are phase-offset from the writes so no poll lands at
		// the same instant a write is in flight.
		rf, err := readerNS.Open(p, "/data/shared", vfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		base := readerOps()
		var latency sim.Duration
		buf := make([]byte, blockLen)
		p.Sleep(pollPeriod / 2)
		for i := 0; i < polls; i++ {
			p.Sleep(pollPeriod)
			// A read racing a concurrent write may legitimately
			// return the latest committed tag or the one being
			// written as the read executes (the paper: serializing
			// reads against writes needs an external mechanism,
			// e.g. locking). Anything older is a stale read.
			tagBefore := currentTag
			before := p.Now()
			n, err := rf.ReadInto(p, buf, 0)
			if err != nil {
				return err
			}
			data := buf[:n]
			latency += p.Now().Sub(before)
			res.Reads++
			if !bytes.Equal(data, tagBlock(tagBefore)) && !bytes.Equal(data, tagBlock(tagBefore+1)) {
				res.StaleReads++
			}
		}
		res.ReaderRPCs = readerOps() - base
		res.MeanReadLatency = latency / sim.Duration(polls)
		writerDone = true
		return rf.Close(p)
	})
	return res, err
}

// WriteShareExperiment runs both protocols and renders the comparison.
func WriteShareExperiment(pm Params) (map[Proto]WriteShareResult, *stats.Table, error) {
	out := map[Proto]WriteShareResult{}
	t := stats.NewTable("Write sharing: reader polls while a writer updates (50 polls)",
		"Version", "stale reads", "reader RPCs", "mean poll latency")
	for _, pr := range []Proto{NFS, SNFS} {
		r, err := RunWriteShare(pr, pm)
		if err != nil {
			return nil, nil, err
		}
		out[pr] = r
		t.AddRow(pr.String(),
			fmt.Sprintf("%d/%d", r.StaleReads, r.Reads),
			fmt.Sprintf("%d", r.ReaderRPCs),
			fmt.Sprintf("%.1fms", r.MeanReadLatency.Milliseconds()))
	}
	return out, t, nil
}
