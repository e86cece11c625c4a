package audit

import (
	"bytes"
	"fmt"
	"slices"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// The ledger tracks file contents in fixed blocks independent of any
// client or server block size — reads and writes are compared byte-wise
// within them.
const ledgerBlock = 4096

// maxVersionsPerBlock bounds per-block history. Only versions whose
// validity window can still overlap a future read matter, and windows
// close as soon as a newer write commits, so a short history suffices.
const maxVersionsPerBlock = 8

// blockVersion is one committed (or in-flight) image of a block.
//
// Validity windows encode the legitimate read/write race: a version
// becomes visible when its write syscall STARTS (a concurrent read may
// return it), and stops being acceptable when the NEXT version's write
// COMPLETES (any read starting after that must see the newer bytes).
// A zero `to` means the version is still current.
type blockVersion struct {
	from sim.Time
	to   sim.Time
	data []byte // ledgerBlock bytes, zero-padded
}

func (v *blockVersion) overlaps(start, end sim.Time) bool {
	return v.from <= end && (v.to == 0 || v.to >= start)
}

// fileLedger is the per-file write history.
type fileLedger struct {
	blocks map[int64][]*blockVersion
}

func (a *Auditor) ledgerFor(h proto.Handle) *fileLedger {
	l, ok := a.ledgers[h]
	if !ok {
		l = &fileLedger{blocks: make(map[int64][]*blockVersion)}
		a.ledgers[h] = l
	}
	return l
}

// ResetLedger forgets the write history of h from before since, the start
// of a create or truncate through the wrapper (old contents are gone by
// construction, not by protocol failure); a write that began since may
// have landed after the truncation.
func (a *Auditor) ResetLedger(h proto.Handle, since sim.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for b, vs := range a.ledgerFor(h).blocks {
		a.ledgers[h].blocks[b] = slices.DeleteFunc(vs, func(v *blockVersion) bool { return v.from < since })
	}
}

// pendingWrite is an in-flight write: its new block versions are already
// visible in the ledger (a concurrent read may legitimately return them
// the instant the syscall starts), but the versions it supersedes stay
// acceptable until WriteEnd closes their windows at the syscall's end.
type pendingWrite struct {
	preds []*blockVersion
	// h, off and data are the write, and mine its versions, one a
	// touched block.
	h    proto.Handle
	off  int64
	data []byte
	mine []*blockVersion
	// rec is the write's journal event, stamped with the syscall's start
	// and journaled by WriteEnd, once the op the syscall minted is known.
	rec record
}

// WriteBegin records the start of a write syscall against h: data is
// being written at off as of start. Each touched ledger block gains a new
// version (a read-modify-write image over the latest version). Call
// WriteEnd when the syscall completes to close the superseded windows —
// recording at start matters, because the server can serve the new bytes
// to a concurrent reader before the writer's syscall returns.
func (a *Auditor) WriteBegin(h proto.Handle, off int64, data []byte, start sim.Time) *pendingWrite {
	if a == nil || len(data) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	pw := &pendingWrite{h: h, off: off, data: data, rec: a.stamp(record{Event: "write", Handle: h.String(),
		Detail: writeDetail(off, len(data))})}
	l := a.ledgerFor(h)
	for _, seg := range segments(off, len(data)) {
		img := make([]byte, ledgerBlock)
		vs := l.blocks[seg.block]
		if n := len(vs); n > 0 {
			copy(img, vs[n-1].data)
			pw.preds = append(pw.preds, vs[n-1])
		}
		copy(img[seg.inBlock:], data[seg.inData:seg.inData+seg.n])
		pw.mine = append(pw.mine, &blockVersion{from: start, data: img})
		vs = append(vs, pw.mine[len(pw.mine)-1])
		if len(vs) > maxVersionsPerBlock {
			vs = vs[len(vs)-maxVersionsPerBlock:]
		}
		l.blocks[seg.block] = vs
	}
	return pw
}

// WriteEnd ends the write syscall pw began, under op, the causal op ID
// the syscall minted: it journals the write with the seq and instant of
// its start, so its line can follow lines of later events, and, if the
// write succeeded, closes the windows of the versions it superseded: any
// read starting after end must see the new bytes. A failed write leaves
// both old and new versions acceptable — the conservative reading of a
// write whose outcome is unknown.
func (a *Auditor) WriteEnd(pw *pendingWrite, op uint64, end sim.Time, ok bool) {
	if a == nil || pw == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	pw.rec.Op = op
	a.journal(pw.rec)
	if !ok {
		return
	}
	for _, v := range pw.preds {
		v.to = end
	}
	// A write that began while this one was in flight may have landed
	// first: this one's bytes over its image are as acceptable.
	l := a.ledgerFor(pw.h)
	for i, seg := range segments(pw.off, len(pw.data)) {
		vs := l.blocks[seg.block]
		if n := len(vs); n > 0 && vs[n-1] != pw.mine[i] {
			img := bytes.Clone(vs[n-1].data)
			copy(img[seg.inBlock:], pw.data[seg.inData:seg.inData+seg.n])
			l.blocks[seg.block] = append(vs, &blockVersion{from: vs[n-1].from, data: img})
		}
	}
}

// NoteWrite records a complete write syscall spanning [start, end] in one
// call (WriteBegin + WriteEnd).
func (a *Auditor) NoteWrite(op uint64, h proto.Handle, off int64, data []byte, start, end sim.Time) {
	a.WriteEnd(a.WriteBegin(h, off, data, start), op, end, true)
}

// CheckRead verifies a read syscall against the ledger: data was returned
// for a read at off spanning [start, end]. For every ledger block the
// result covers, the returned bytes must equal some version whose
// validity window overlaps the read — otherwise the read is stale (a
// consistency violation, or a delayed write that was lost).
func (a *Auditor) CheckRead(op uint64, h proto.Handle, off int64, data []byte, start, end sim.Time) {
	if a == nil || len(data) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.event(record{Op: op, Event: "read", Handle: h.String(),
		Detail: writeDetail(off, len(data))})
	l, ok := a.ledgers[h]
	if !ok {
		return // contents predate auditing (or were reset); nothing to vouch for
	}
	for _, seg := range segments(off, len(data)) {
		vs := l.blocks[seg.block]
		if len(vs) == 0 {
			continue
		}
		got := data[seg.inData : seg.inData+seg.n]
		matched := false
		candidates := 0
		for _, v := range vs {
			if !v.overlaps(start, end) {
				continue
			}
			candidates++
			if bytes.Equal(got, v.data[seg.inBlock:seg.inBlock+int64(seg.n)]) {
				matched = true
				break
			}
		}
		if candidates == 0 {
			// Every recorded version was superseded before auditing
			// could observe a write for this window — should not
			// happen, but do not claim a violation without a witness.
			continue
		}
		if !matched {
			a.violate(op, InvStaleRead, h,
				"read of block %d (off %d, %dB) returned bytes matching none of %d valid version(s)",
				seg.block, off, len(data), candidates)
		}
	}
}

// segment maps a byte range onto one ledger block.
type segment struct {
	block   int64 // block index
	inBlock int64 // offset within the block
	inData  int   // offset within the caller's buffer
	n       int   // byte count
}

func segments(off int64, n int) []segment {
	var out []segment
	pos := int64(0)
	for pos < int64(n) {
		abs := off + pos
		block := abs / ledgerBlock
		inBlock := abs % ledgerBlock
		take := ledgerBlock - inBlock
		if rem := int64(n) - pos; take > rem {
			take = rem
		}
		out = append(out, segment{block: block, inBlock: inBlock, inData: int(pos), n: int(take)})
		pos += take
	}
	return out
}

func writeDetail(off int64, n int) string {
	return fmt.Sprintf("off=%d len=%d", off, n)
}
