package harness

import (
	"fmt"
	"strings"
	"testing"

	"spritelynfs/internal/cluster"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// builder builds a world and returns its client hosts' namespaces and
// the root-level directories its servers split between them.
type builder func(pm Params) (*World, []*vfs.Namespace, []string, error)

// topologies are the arrangements every world in the repository is one of.
var topologies = []struct {
	name  string
	build builder
}{
	{"single NFS", single(NFS)},
	{"single SNFS", single(SNFS)},
	{"single RFS", single(RFS)},
	{"2 shards", federation(false)},
	{"2 shards + backups", federation(true)},
	{"8-client fleet", func(pm Params) (*World, []*vfs.Namespace, []string, error) {
		f := BuildFleet(SNFS, pm, FleetOptions{Clients: 8, Audit: pm.Audit})
		nss := []*vfs.Namespace{f.W.NS}
		for _, c := range f.Clients {
			nss = append(nss, c.NS)
		}
		return f.W, nss, []string{"/data"}, nil
	}},
}

func single(pr Proto) builder {
	return func(pm Params) (*World, []*vfs.Namespace, []string, error) {
		w := Build(pr, true, pm)
		return w, []*vfs.Namespace{w.NS}, []string{"/data"}, nil
	}
}

func federation(backups bool) builder {
	return func(pm Params) (*World, []*vfs.Namespace, []string, error) {
		pm.Backups = backups
		w, err := BuildCluster(2, map[string]uint32{"/data": 0, "/data1": 1}, pm)
		if err != nil {
			return nil, nil, nil, err
		}
		w.AddRouter("client0")
		w.AddRouter("client1")
		return w, w.NSs, []string{"/data", "/data1"}, nil
	}
}

// touch has every client write and read back a file of its own under each
// of dirs, so every server serves every client.
func touch(p *sim.Proc, nss []*vfs.Namespace, dirs []string, pm Params) error {
	for _, dir := range dirs {
		for i, ns := range nss {
			if _, err := ns.Stat(p, dir); err != nil {
				// A federation starts empty; a single server has /data.
				if err := ns.Mkdir(p, dir, 0o755); err != nil {
					return err
				}
			}
			path := fmt.Sprintf("%s/t%d", dir, i)
			if err := ns.WriteFile(p, path, 12*1024, pm.TransferSize); err != nil {
				return err
			}
			if _, err := ns.ReadFile(p, path, pm.TransferSize); err != nil {
				return err
			}
			ns.SyncAll(p)
		}
	}
	return nil
}

// TestEveryTopologyGetsEveryInstrument: whichever way the hosts are
// arranged, arming audit, flight, spans and metrics reaches every server
// host — each of its sinks sees traffic — and arming nothing allocates no
// sink anywhere.
func TestEveryTopologyGetsEveryInstrument(t *testing.T) {
	for _, tp := range topologies {
		t.Run(tp.name+"/armed", func(t *testing.T) {
			pm := fastParams()
			pm.Audit, pm.Spans, pm.FlightCapacity, pm.SpanTopK = true, true, 4096, 4096
			w, nss, dirs, err := tp.build(pm)
			if err != nil {
				t.Fatal(err)
			}
			w.EnableMetrics()
			if err := w.Run(func(p *sim.Proc) error { return touch(p, nss, dirs, pm) }); err != nil {
				t.Fatal(err)
			}
			spanned := map[string]bool{}
			for _, op := range w.Spans.SlowOps() {
				for _, s := range op.Spans {
					spanned[s.Host] = true
				}
			}
			if len(w.servers) == 0 {
				t.Fatal("world has no server hosts")
			}
			for _, h := range w.servers {
				if h.SNFS != nil && h.Auditor.Events() == 0 {
					t.Errorf("%s: auditor witnessed nothing", h.Addr)
				}
				if h.Flight.Total() == 0 {
					t.Errorf("%s: flight ring is empty", h.Addr)
				}
				if !spanned[string(h.Addr)] {
					t.Errorf("%s: no span recorded on this host", h.Addr)
				}
				served := int64(0)
				for name, hs := range h.Metrics.Snapshot().Hists {
					if strings.Contains(name, "snfs_rpc_serve") {
						served += hs.Count
					}
				}
				if served == 0 {
					t.Errorf("%s: registry holds no serve-latency sample", h.Addr)
				}
			}
		})
		t.Run(tp.name+"/off", func(t *testing.T) {
			w, nss, dirs, err := tp.build(fastParams())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(func(p *sim.Proc) error { return touch(p, nss, dirs, fastParams()) }); err != nil {
				t.Fatal(err)
			}
			for _, h := range w.servers {
				if h.Instruments != (cluster.Instruments{}) {
					t.Errorf("%s: sinks allocated with nothing armed: %+v", h.Addr, h.Instruments)
				}
			}
			if w.Spans != nil || w.Auditor != nil || w.Flight != nil {
				t.Errorf("world-level sinks allocated with nothing armed")
			}
		})
	}
}

// TestScaleInstrumentsEveryClient: a sampled multi-client scale point
// carries client-side gauges for every client host, not just the first
// (RunScale arms metrics after adding the other hosts).
func TestScaleInstrumentsEveryClient(t *testing.T) {
	pm := fastParams()
	pm.SampleInterval = 500 * sim.Millisecond
	pt, err := RunScale(SNFS, 3, pm)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Join(pt.Timeline.Names(), "\n")
	for _, host := range []string{"client", "client1", "client2"} {
		if !strings.Contains(names, `snfs_client_cache_blocks{host="`+host+`"}`) {
			t.Errorf("timeline has no cache gauge for host %q", host)
		}
	}
}

// TestClusterScaleHonoursSpans: a federation point with Params.Spans
// returns a breakdown whose server CPU and disk time come from every
// shard.
func TestClusterScaleHonoursSpans(t *testing.T) {
	pm := fastParams()
	pm.Spans, pm.SpanTopK = true, 4096
	pt, err := RunClusterScale(4, 2, pm)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Spans == nil {
		t.Fatal("Params.Spans armed but ScalePoint.Spans is nil")
	}
	seen := map[string]bool{}
	for _, op := range pt.Spans.SlowOps {
		for _, s := range op.Spans {
			seen[s.Host+" "+s.Kind] = true
		}
	}
	for _, want := range []string{"shard0 cpu", "shard1 cpu", "shard0-disk disk-arm", "shard1-disk disk-arm"} {
		if !seen[want] {
			t.Errorf("no %q span in the breakdown's captured trees", want)
		}
	}
	if pt.Spans.DiskArmSeconds <= 0 || pt.Spans.DiskBusySeconds < pt.Spans.DiskArmSeconds {
		t.Errorf("disk arm %.3fs vs busy gauge %.3fs", pt.Spans.DiskArmSeconds, pt.Spans.DiskBusySeconds)
	}
}
