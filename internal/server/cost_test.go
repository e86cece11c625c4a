package server

import (
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/xdr"
)

// TestConfigFillCostRule pins the rule by which a Config's CPU costs are
// read: the pair is one model, defaulted only when neither is stated.
func TestConfigFillCostRule(t *testing.T) {
	for _, tc := range []struct {
		name         string
		in           Config
		perOp, perKB sim.Duration
	}{
		{"neither stated: the 1989 model", Config{}, 2 * sim.Millisecond, 250 * sim.Microsecond},
		{"only FSID stated: the 1989 model", Config{FSID: 1}, 2 * sim.Millisecond, 250 * sim.Microsecond},
		{"per-op stated: per-KB is free", Config{CPUPerOp: 1}, 1, 0},
		{"per-KB stated: per-op is free", Config{CPUPerKB: 5}, 0, 5},
		{"both stated: as written", Config{CPUPerOp: 2 * sim.Millisecond, CPUPerKB: 150 * sim.Microsecond}, 2 * sim.Millisecond, 150 * sim.Microsecond},
	} {
		c := tc.in
		c.fill()
		if c.CPUPerOp != tc.perOp || c.CPUPerKB != tc.perKB {
			t.Errorf("%s: filled to %v + %v/KB, want %v + %v/KB", tc.name, c.CPUPerOp, c.CPUPerKB, tc.perOp, tc.perKB)
		}
		if c.FSID != tc.in.FSID {
			t.Errorf("%s: FSID moved from %d to %d", tc.name, tc.in.FSID, c.FSID)
		}
	}
}

// TestStatedCostIsChargedLiterally is the rule seen from the CPU: a
// server told 1 µs per RPC and nothing per KB spends exactly 1 µs on an
// 8 KiB READ, not 1 µs plus the default 2 ms for the data.
func TestStatedCostIsChargedLiterally(t *testing.T) {
	const reads, bs = 16, 8192
	r := newRigWith(Config{FSID: 1, CPUPerOp: 1}, true, SNFSOptions{})
	r.run(t, func(p *sim.Proc) {
		body := r.call(t, p, proto.ProcCreate, &proto.CreateArgs{Dir: r.root(), Name: "f", Mode: 0o644})
		h := proto.DecodeHandleReply(xdr.NewDecoder(body)).Handle
		r.call(t, p, proto.ProcWrite, &proto.WriteArgs{Handle: h, Data: make([]byte, reads*bs)})
		before := r.snfs.CPU().BusyTime()
		for i := 0; i < reads; i++ {
			body := r.call(t, p, proto.ProcRead, &proto.ReadArgs{Handle: h, Offset: int64(i) * bs, Count: bs})
			if rr := proto.DecodeReadReply(xdr.NewDecoder(body)); rr.Status != proto.OK || len(rr.Data) != bs {
				t.Fatalf("read %d: %v, %d bytes", i, rr.Status, len(rr.Data))
			}
		}
		if got := r.snfs.CPU().BusyTime() - before; got != reads*sim.Microsecond {
			t.Errorf("%d 8 KiB READs held the CPU for %v, want %v", reads, got, reads*sim.Microsecond)
		}
	})
}
