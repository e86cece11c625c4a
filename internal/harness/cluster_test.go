package harness

import (
	"strings"
	"testing"

	"spritelynfs/internal/sim"
)

func TestClusterScalePoint(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	pt, err := RunClusterScale(4, 2, pm)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Shards != 2 || pt.Clients != 4 {
		t.Errorf("point labeled %d shards / %d clients", pt.Shards, pt.Clients)
	}
	if pt.Elapsed <= 0 || pt.ServerCPU <= 0 || pt.TotalRPCs <= 0 {
		t.Errorf("empty measurement: %+v", pt)
	}
	// A balanced two-shard partition of four independent clients must
	// leave the busiest shard cooler than one server carrying all four.
	single, err := RunScale(SNFS, 4, pm)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ServerCPU >= single.ServerCPU {
		t.Errorf("2-shard max CPU %.3f not below single-server %.3f",
			pt.ServerCPU, single.ServerCPU)
	}
}

func TestClusterRedirectsAfterRebalance(t *testing.T) {
	pm := fastParams()
	pm.Audit = true
	cw, err := BuildCluster(2, map[string]uint32{"/a": 0, "/b": 1}, pm)
	if err != nil {
		t.Fatal(err)
	}
	_, ns := cw.AddRouter("client0")
	err = cw.Run(func(p *sim.Proc) error {
		if err := ns.Mkdir(p, "/a", 0o755); err != nil {
			return err
		}
		if err := ns.WriteFile(p, "/a/f", 8192, pm.TransferSize); err != nil {
			return err
		}
		if err := cw.Cluster.Rebalance(p, "/a", 1); err != nil {
			return err
		}
		if _, err := ns.ReadFile(p, "/a/f", pm.TransferSize); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cw.Redirects() != 1 {
		t.Errorf("%d redirects, want 1", cw.Redirects())
	}
}

func TestScaleCSV(t *testing.T) {
	pts := []ScalePoint{
		{Clients: 1, Shards: 2, Elapsed: 10 * sim.Second, Slowdown: 1, ServerCPU: 0.25, ServerDisk: 0.1, TotalRPCs: 42},
		{Clients: 4, Shards: 2, Elapsed: 12 * sim.Second, Slowdown: 1.2, ServerCPU: 0.5, ServerDisk: 0.2, TotalRPCs: 170},
	}
	var b strings.Builder
	if err := WriteScaleCSV(&b, "SNFS", pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || lines[0] != ScaleCSVHeader {
		t.Fatalf("csv:\n%s", b.String())
	}
	if lines[1] != "SNFS,2,1,10.000,1.000,0.2500,0.1000,42" {
		t.Errorf("row: %s", lines[1])
	}
	// Single-server points (Shards unset) write as one shard.
	b.Reset()
	if err := WriteScaleCSV(&b, "NFS", []ScalePoint{{Clients: 2, Elapsed: sim.Second}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NFS,1,2,") {
		t.Errorf("csv: %s", b.String())
	}
}

func TestSustainableClients(t *testing.T) {
	pts := []ScalePoint{
		{Clients: 1, Slowdown: 1},
		{Clients: 2, Slowdown: 1.05},
		{Clients: 4, Slowdown: 1.2},
		{Clients: 8, Slowdown: 2.3},
	}
	if got := SustainableClients(pts, 1.25); got != 4 {
		t.Errorf("SustainableClients = %d, want 4", got)
	}
	if got := SustainableClients(pts, 1.0); got != 1 {
		t.Errorf("SustainableClients tight = %d, want 1", got)
	}
}
