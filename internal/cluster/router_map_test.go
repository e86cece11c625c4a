package cluster

import (
	"fmt"
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// TestParseMapSpecMoreErrorPaths extends the error table: malformed
// numbers and degenerate specs must be rejected, never half-parsed.
func TestParseMapSpecMoreErrorPaths(t *testing.T) {
	for _, bad := range []string{
		"0=a,v=abc",                  // non-numeric version
		"0=a,v=-1",                   // negative version
		"0=a,/x=abc",                 // non-numeric shard id in assignment
		"0=a,/x=-2",                  // negative shard id
		"-1=a",                       // negative server id
		"0=a,99999999999999999999=b", // id overflows uint32
		"",                           // empty spec: no shard 0
		" , , ",                      // only separators: no shard 0
		"/x=0",                       // assignments but no servers
	} {
		if m, err := ParseMapSpec(bad); err == nil {
			t.Errorf("ParseMapSpec(%q) accepted: %+v", bad, m)
		}
	}
}

// TestRouterShard routes a path by its first component, read by the
// walk's syntax (vfs.Next): "." and empty components are skipped, and
// unassigned names and the root belong to shard 0.
func TestRouterShard(t *testing.T) {
	r := &Router{hosts: make([]*ClientHost, 2), m: proto.ShardMap{
		Version: 1,
		Servers: []string{"a", "b"},
		Assignments: []proto.ShardAssignment{
			{Prefix: "/src", Shard: 1},
			{Prefix: "/doc", Shard: 0},
		},
	}}
	cases := map[string]int{
		"src":           1,
		"/src":          1,
		"src/lib/x.go":  1,
		"/src/lib/x.go": 1,
		"./src/x.go":    1,
		"//./src":       1,
		"doc":           0,
		"doc/readme":    0,
		"other":         0, // unassigned names default to shard 0
		"":              0, // the root itself
		"/":             0,
		"/./":           0,
	}
	for path, want := range cases {
		if got := r.shard(path); got != want {
			t.Errorf("shard(%q) = %d, want %d", path, got, want)
		}
	}
	if r.m.Owner("src") != 1 || r.m.Owner("doc") != 0 || r.m.Owner("zzz") != 0 {
		t.Error("Owner mismatch")
	}
}

// TestRouterNeverInstallsOlderMap pins the version-monotonicity rule:
// whatever order refetched maps arrive in — including concurrent
// refetches racing a failover's address change — the router only ever
// moves forward, and its per-shard targets always match the newest map
// it has accepted.
func TestRouterNeverInstallsOlderMap(t *testing.T) {
	k, c := testCluster(t, 2, map[string]uint32{"/a": 0, "/b": 1})
	r := c.NewRouter("host")

	mapAt := func(version uint32, shard0 string) proto.ShardMap {
		m := c.Map()
		m.Version = version
		m.Servers = append([]string(nil), m.Servers...)
		m.Servers[0] = shard0
		return m
	}

	if r.InstallMap(mapAt(1, "elsewhere")) {
		t.Fatal("router accepted a map at its own version")
	}
	if !r.InstallMap(mapAt(3, "shard0b")) {
		t.Fatal("router refused a strictly newer map")
	}
	if r.m.Version != 3 {
		t.Fatalf("map version %d, want 3", r.m.Version)
	}
	if got := r.hosts[0].Base.Server(); string(got) != "shard0b" {
		t.Fatalf("shard 0 client targets %q after v3 install, want shard0b", got)
	}
	if r.InstallMap(mapAt(2, "shard0")) {
		t.Fatal("router accepted an older map")
	}
	if got := r.hosts[0].Base.Server(); string(got) != "shard0b" {
		t.Fatalf("older map regressed shard 0 target to %q", got)
	}

	// Concurrent refetches deliver versions 2..9 in scrambled order;
	// the router must end on the highest, targeting its address.
	versions := []uint32{7, 2, 9, 4, 8, 3, 6, 5}
	k.Go("installers", func(p *sim.Proc) {
		defer k.Stop()
		var wg sim.WaitGroup
		wg.Add(len(versions))
		for i, v := range versions {
			v := v
			k.Go(fmt.Sprintf("install-v%d", v), func(ip *sim.Proc) {
				defer wg.Done()
				ip.Sleep(sim.Duration(i) * sim.Microsecond)
				r.InstallMap(mapAt(v, fmt.Sprintf("addr-v%d", v)))
			})
		}
		wg.Wait(p)
	})
	k.Run()
	if r.m.Version != 9 {
		t.Fatalf("after concurrent installs map version %d, want 9", r.m.Version)
	}
	if got := r.hosts[0].Base.Server(); string(got) != "addr-v9" {
		t.Fatalf("shard 0 client targets %q, want addr-v9", got)
	}
}
