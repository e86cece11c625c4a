package cluster

import (
	"errors"
	"testing"

	"spritelynfs/internal/audit"
	"spritelynfs/internal/client"
	"spritelynfs/internal/disk"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/server"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/simnet"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/vfs"
)

// testCluster assembles a kernel, network, and audited cluster with the
// given assignments, mirroring the harness cost model at small scale.
func testCluster(t *testing.T, shards int, assign map[string]uint32) (*sim.Kernel, *Cluster) {
	t.Helper()
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{PropDelay: 2 * sim.Millisecond, BytesPerSec: 1_250_000})
	c, err := New(k, net, Config{
		Shards:      shards,
		Assignments: assign,
		Server: ServerSpec{
			Config: server.Config{CPUPerOp: 2 * sim.Millisecond, CPUPerKB: 150 * sim.Microsecond},
			Disk:   disk.RA81(),
		},
		Client: ClientSpec{
			Config: client.Config{BlockSize: 8 * 1024, CacheBytes: 16 << 20, ReadAhead: true},
			SNFS:   client.SNFSOptions{UpdateInterval: 30 * sim.Second},
		},
		Instruments: func(int) trace.Instruments { return trace.Instruments{Auditor: audit.New(k, nil)} },
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return k, c
}

// run executes fn as the workload and fails the test on workload or
// audit errors.
func run(t *testing.T, k *sim.Kernel, c *Cluster, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	k.Go("workload", func(p *sim.Proc) {
		defer k.Stop()
		err = fn(p)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AuditErr(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func writeFile(p *sim.Proc, fs vfs.FS, path string, data []byte) error {
	f, err := fs.Open(p, path, vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(p, 0, data); err != nil {
		return err
	}
	return f.Close(p)
}

func readFile(p *sim.Proc, fs vfs.FS, path string, n int) ([]byte, error) {
	f, err := fs.Open(p, path, vfs.ReadOnly, 0)
	if err != nil {
		return nil, err
	}
	data, err := f.ReadAt(p, 0, n)
	if cerr := f.Close(p); err == nil {
		err = cerr
	}
	return data, err
}

func fill(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestClusterRoutesByPrefix(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/a": 0, "/b": 1})
	r := c.NewRouter("host1")
	run(t, k, c, func(p *sim.Proc) error {
		for _, dir := range []string{"/a", "/b"} {
			if err := r.Mkdir(p, dir, 0o755); err != nil {
				return err
			}
			if err := writeFile(p, r, dir+"/f.dat", fill(8192, dir[1])); err != nil {
				return err
			}
		}
		r.SyncAll(p)
		for _, dir := range []string{"/a", "/b"} {
			data, err := readFile(p, r, dir+"/f.dat", 8192)
			if err != nil {
				return err
			}
			if len(data) != 8192 || data[0] != dir[1] {
				t.Errorf("%s/f.dat: got %d bytes, first %q", dir, len(data), data[0])
			}
		}
		// The partition really partitioned: each shard served writes,
		// and neither holds the other's subtree.
		for i, sh := range c.Shards() {
			if got := sh.Base.Ops().Get("write"); got == 0 {
				t.Errorf("shard %d served no writes", i)
			}
		}
		st0, st1 := sr(c.Shards()[0]), sr(c.Shards()[1])
		if _, err := st0.Lookup(st0.Root(), "b"); err == nil {
			t.Error("shard 0 holds /b")
		}
		if _, err := st1.Lookup(st1.Root(), "a"); err == nil {
			t.Error("shard 1 holds /a")
		}
		// The cluster root merges both shards' listings.
		ents, err := r.Readdir(p, "")
		if err != nil {
			return err
		}
		names := map[string]bool{}
		for _, e := range ents {
			names[e.Name] = true
		}
		if !names["a"] || !names["b"] {
			t.Errorf("merged root listing %v, want a and b", names)
		}
		if r.Redirects() != 0 {
			t.Errorf("%d redirects on a fresh map", r.Redirects())
		}
		return nil
	})
}

func TestCrossShardRenameFailsCleanly(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/a": 0, "/b": 1})
	r := c.NewRouter("host1")
	run(t, k, c, func(p *sim.Proc) error {
		if err := r.Mkdir(p, "/a", 0o755); err != nil {
			return err
		}
		if err := r.Mkdir(p, "/b", 0o755); err != nil {
			return err
		}
		if err := writeFile(p, r, "/a/x.dat", fill(4096, 'x')); err != nil {
			return err
		}
		err := r.Rename(p, "/a/x.dat", "/b/y.dat")
		if proto.StatusOf(err) != proto.ErrXDev {
			t.Fatalf("cross-shard rename: %v, want EXDEV", err)
		}
		if err := r.Link(p, "/a/x.dat", "/b/y.dat"); proto.StatusOf(err) != proto.ErrXDev {
			t.Fatalf("cross-shard link: %v, want EXDEV", err)
		}
		// No half-applied op on either shard: the source survives
		// intact, the destination never appeared.
		if data, err := readFile(p, r, "/a/x.dat", 4096); err != nil || len(data) != 4096 {
			t.Errorf("source gone after failed rename: %v", err)
		}
		if _, err := r.Stat(p, "/b/y.dat"); proto.StatusOf(err) != proto.ErrNoEnt {
			t.Errorf("destination exists after failed rename: %v", err)
		}
		// Same-shard renames still work.
		if err := r.Rename(p, "/a/x.dat", "/a/z.dat"); err != nil {
			t.Errorf("same-shard rename: %v", err)
		}
		return nil
	})
}

// TestCrossShardSymlinkIsXDev follows absolute links from shard 0: one
// whose target is homed on shard 1 fails at once with ErrXDev, as a
// cross-shard rename does, since no map refetch can make shard 0 the
// target's home; one whose target stays on shard 0 resolves.
func TestCrossShardSymlinkIsXDev(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/a": 0, "/b": 1})
	r := c.NewRouter("host1")
	run(t, k, c, func(p *sim.Proc) error {
		for _, dir := range []string{"/a", "/b", "/a/tmp"} {
			if err := r.Mkdir(p, dir, 0o755); err != nil {
				return err
			}
		}
		for _, f := range []string{"/a/g", "/b/f"} {
			if err := writeFile(p, r, f, fill(100, f[1])); err != nil {
				return err
			}
		}
		for _, l := range [][2]string{{"/b/f", "/a/ln"}, {"/b", "/a/dirln"}, {"/a/g", "/a/near"}} {
			if err := r.Symlink(p, l[0], l[1]); err != nil {
				return err
			}
		}
		if target, err := r.Readlink(p, "/a/ln"); err != nil || target != "/b/f" {
			t.Errorf("readlink /a/ln = %q, %v", target, err)
		}
		if _, err := readFile(p, r, "/a/ln", 100); proto.StatusOf(err) != proto.ErrXDev {
			t.Errorf("open through a link into shard 1: %v, want EXDEV", err)
		}
		if _, err := r.Stat(p, "/a/dirln/f"); proto.StatusOf(err) != proto.ErrXDev {
			t.Errorf("stat through a directory link into shard 1: %v, want EXDEV", err)
		}
		if data, err := readFile(p, r, "/a/near", 100); err != nil || len(data) != 100 || data[0] != 'a' {
			t.Errorf("read through a link within shard 0: %d bytes, %v", len(data), err)
		}
		if err := r.Rmdir(p, "/a/tmp"); err != nil {
			t.Errorf("rmdir /a/tmp: %v", err)
		}
		if n := r.Redirects(); n != 0 {
			t.Errorf("%d redirects, want 0: the map was never stale", n)
		}
		return nil
	})
}

// TestRouterRoutesByTheWalksFirstComponent routes paths whose first
// component follows "." or empty ones: the router reads a path the way
// the walk does, so it sends one to the shard the walk will look in.
func TestRouterRoutesByTheWalksFirstComponent(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/b": 1})
	r := c.NewRouter("host1")
	run(t, k, c, func(p *sim.Proc) error {
		if err := r.Mkdir(p, "./b", 0o755); err != nil {
			return err
		}
		if err := writeFile(p, r, "//./b/f", fill(100, 'b')); err != nil {
			return err
		}
		if data, err := readFile(p, r, "/b/./f", 100); err != nil || len(data) != 100 {
			t.Errorf("read /b/./f: %d bytes, %v", len(data), err)
		}
		if n := r.Redirects(); n != 0 {
			t.Errorf("%d redirects, want 0: the map was never stale", n)
		}
		return nil
	})
}

// TestStaleMapConverges rebalances a prefix mid-workload: a router still
// holding the old map must converge after a single NOTHOME redirect, and
// dirty delayed writes quiesced by the migration must survive the move.
func TestStaleMapConverges(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/mv": 0, "/stay": 1})
	writer := c.NewRouter("writer")
	reader := c.NewRouter("reader")
	run(t, k, c, func(p *sim.Proc) error {
		if err := writer.Mkdir(p, "/mv", 0o755); err != nil {
			return err
		}
		// Delayed write-back: the dirty blocks sit in writer's cache,
		// NOT on the shard 0 store, when the rebalance starts.
		if err := writeFile(p, writer, "/mv/f.dat", fill(8192, 'm')); err != nil {
			return err
		}
		if err := c.Rebalance(p, "/mv", 1); err != nil {
			return err
		}
		// Migration must have forced the write-back: the bytes now
		// live on shard 1's store.
		st1 := sr(c.Shards()[1])
		if a, err := st1.Lookup(st1.Root(), "mv"); err != nil {
			t.Fatalf("shard 1 has no /mv after rebalance: %v", err)
		} else if fa, err := st1.Lookup(a.Ino, "f.dat"); err != nil || fa.Size != 8192 {
			t.Fatalf("shard 1 /mv/f.dat after rebalance: %v size=%d", err, fa.Size)
		}
		// The reader still holds map v1 pointing /mv at shard 0; one
		// NOTHOME redirect must converge it.
		if reader.m.Version != 1 {
			t.Fatalf("reader map v%d before redirect", reader.m.Version)
		}
		data, err := readFile(p, reader, "/mv/f.dat", 8192)
		if err != nil {
			return err
		}
		if len(data) != 8192 || data[0] != 'm' {
			t.Errorf("migrated read: %d bytes, first %q", len(data), data[0])
		}
		if reader.Redirects() != 1 {
			t.Errorf("reader took %d redirects, want exactly 1", reader.Redirects())
		}
		if reader.m.Version != 2 {
			t.Errorf("reader map v%d after redirect, want 2", reader.m.Version)
		}
		// The writer (also stale) converges on its next touch too —
		// including through its now-stale cached handles.
		if err := writeFile(p, writer, "/mv/g.dat", fill(4096, 'g')); err != nil {
			return err
		}
		if writer.m.Version != 2 {
			t.Errorf("writer map v%d after write, want 2", writer.m.Version)
		}
		data, err = readFile(p, reader, "/mv/g.dat", 4096)
		if err != nil {
			return err
		}
		if len(data) != 4096 || data[0] != 'g' {
			t.Errorf("post-move write read back %d bytes, first %q", len(data), data[0])
		}
		// Shard 0 no longer holds the subtree.
		st0 := sr(c.Shards()[0])
		if _, err := st0.Lookup(st0.Root(), "mv"); err == nil {
			t.Error("shard 0 still holds /mv")
		}
		return nil
	})
}

// TestRedirectLoopCaps plants disagreeing shard maps directly on the
// servers (a configuration bug no healthy control plane produces): the
// router must fail loudly with ErrRedirectLoop instead of spinning.
func TestRedirectLoopCaps(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/x": 0})
	r := c.NewRouter("host1")
	// Both servers claim the *other* is /x's home, at the same (newer)
	// version — refetching can never advance the router past it.
	m0 := c.Map()
	m0.Version = 9
	m0.Assignments = []proto.ShardAssignment{{Prefix: "/x", Shard: 1}}
	m1 := c.Map()
	m1.Version = 9
	m1.Assignments = []proto.ShardAssignment{{Prefix: "/x", Shard: 0}}
	c.Shards()[0].Base.SetShardMap(m0, 0)
	c.Shards()[1].Base.SetShardMap(m1, 1)
	var err error
	k.Go("workload", func(p *sim.Proc) {
		defer k.Stop()
		err = r.Mkdir(p, "/x", 0o755)
	})
	k.Run()
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("got %v, want ErrRedirectLoop", err)
	}
}

func TestParseMapSpec(t *testing.T) {
	m, err := ParseMapSpec("0=localhost:2049, 1=localhost:2050, /src=1, /doc=0, v=3")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || len(m.Servers) != 2 || m.Servers[1] != "localhost:2050" {
		t.Errorf("parsed %+v", m)
	}
	if m.Owner("src") != 1 || m.Owner("doc") != 0 || m.Owner("other") != 0 {
		t.Errorf("lookup through parsed map: %+v", m.Assignments)
	}
	for _, bad := range []string{
		"0=a,/x",        // entry without '='
		"0=a,/x/y=0",    // nested prefix
		"1=a,/x=1",      // sparse shard ids (no shard 0)
		"0=a,/x=5",      // shard out of range
		"0=a,0=b",       // duplicate server
		"0=a,v=0",       // zero version
		"0=,/x=0",       // empty address
		"0=a,/x=0,/x=0", // duplicate prefix
		"zz=a",          // junk key
	} {
		if _, err := ParseMapSpec(bad); err == nil {
			t.Errorf("ParseMapSpec(%q) accepted", bad)
		}
	}
}
