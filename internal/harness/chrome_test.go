package harness

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// TestChromeExportPairsEveryServe runs two SNFS clients against one
// server through the RPC layer with a world ring armed, and reads the ring
// back through WriteChrome: every serve that its reply follows must become
// an X span named for its procedure, and only a serve still open when the
// trace ended may stay an instant.
func TestChromeExportPairsEveryServe(t *testing.T) {
	w := Build(SNFS, true, fastParams())
	tr := w.EnableTrace(1 << 16)
	_, ns2 := w.AddSNFSClient("client2", client.SNFSOptions{})
	// Both clients number their xids from 1 and run one script side by
	// side, so the server serves each xid for both at once.
	nss := []*vfs.Namespace{w.NS, ns2}
	err := w.Run(func(p *sim.Proc) error {
		return w.RunEach(p, len(nss), "script", func(p *sim.Proc, c int) error {
			for i := 0; i < 4; i++ {
				path := fmt.Sprintf("/data/c%d-f%d", c, i)
				if err := nss[c].WriteFile(p, path, 8192, 4096); err != nil {
					return err
				}
				if _, err := nss[c].ReadFile(p, path, make([]byte, 4096)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", tr.Dropped())
	}

	// What the RPC layer recorded: the serves a reply answers, by the
	// procedure each names.
	type key struct {
		host, peer string
		xid        uint32
	}
	open := map[key]trace.Event{}
	completed := map[string]int{}
	serves, answered, xids := 0, 0, map[uint32]map[string]bool{}
	for _, e := range tr.Events() {
		k := key{e.Host, e.Peer, e.XID}
		switch e.Kind {
		case trace.RPCServe:
			serves++
			open[k] = e
			if xids[e.XID] == nil {
				xids[e.XID] = map[string]bool{}
			}
			xids[e.XID][e.Peer] = true
		case trace.RPCReply:
			if s, ok := open[k]; ok {
				completed[strings.Fields(s.Detail)[2]]++
				answered++
				delete(open, k)
			}
		}
	}
	if len(xids[1]) < 2 {
		t.Fatalf("xid 1 served from %v, want both clients", xids[1])
	}

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Detail string `json:"detail"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	spans, instants := map[string]int{}, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X":
			spans[e.Name]++
			if f := strings.Fields(e.Args.Detail); len(f) < 3 || f[2] != e.Name {
				t.Errorf("span %q carries serve %q", e.Name, e.Args.Detail)
			}
		case e.Ph == "i" && e.Name == trace.RPCServe.String():
			instants++
		}
	}
	if !maps.Equal(spans, completed) {
		t.Errorf("X spans by procedure %v, want the completed serves %v", spans, completed)
	}
	if want := serves - answered; instants != want {
		t.Errorf("%d serves left as instants, want %d (the ones still open)", instants, want)
	}
}
