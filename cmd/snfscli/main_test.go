package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/span"
)

// The views below had never been run by anything: each is driven here
// against canned documents served the way snfsd's observability plane
// serves them.

const metricsBefore = `# HELP snfs_server_cpu_busy_seconds CPU time charged
# TYPE snfs_server_cpu_busy_seconds gauge
snfs_server_cpu_busy_seconds{host="server"} 1.5
snfs_server_cpu_utilization{host="server"} 0.25
snfs_server_disk_utilization 0.125
snfs_server_state_table_size 7
snfs_rpc_serve_us_count{proc="read"} 10
# snfs_rpc_serve_us p50=3 p90=4 p99=5 max=6
`

const metricsAfter = `snfs_server_cpu_busy_seconds{host="server"} 2.5
snfs_server_cpu_utilization{host="server"} 0.25
snfs_server_disk_utilization 0.125
snfs_server_state_table_size 7
snfs_rpc_serve_us_count{proc="read"} 30
`

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStatsWatchRendersMovedSamples: two polls of /metrics two seconds
// apart show exactly the samples that moved, with delta and rate; labeled
// samples stay distinct and comment lines are not samples.
func TestStatsWatchRendersMovedSamples(t *testing.T) {
	polls := []string{metricsBefore, metricsAfter}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, polls[0])
		polls = polls[1:]
	}))
	defer srv.Close()
	prev := parseProm(get(t, srv.URL+"/metrics"))
	cur := parseProm(get(t, srv.URL+"/metrics"))
	if len(prev) != 5 || prev[`snfs_rpc_serve_us_count{proc="read"}`] != 10 {
		t.Fatalf("first poll parsed as %v, want the 5 samples and no comment", prev)
	}
	var out bytes.Buffer
	renderWatch(&out, prev, cur, 2*time.Second)
	got := out.String()
	for _, want := range []string{
		`snfs_server_cpu_busy_seconds{host="server"}                                 2.5           +1          0.5`,
		`snfs_rpc_serve_us_count{proc="read"}                                         30          +20           10`,
		"3 samples unchanged",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("watch output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "state_table_size") {
		t.Errorf("an unchanged sample was rendered:\n%s", got)
	}
}

// TestSlowopsViews: `slowops` renders /slowops as the breakdown plus one
// line per captured op, `slowops <op>` renders /spans/<op> as an indented
// tree with offsets from the root and the attribution, sorted.
func TestSlowopsViews(t *testing.T) {
	op := span.SlowOp{
		Op: 17, Name: "read", Host: "client", StartUS: 1000, DurUS: 4500,
		CatsUS: map[string]int64{"server.cpu": 2000, "disk.arm": 1500},
		Spans: []span.Span{
			{ID: 0, Parent: -1, Depth: 0, Kind: "syscall", Name: "read", Host: "client", StartUS: 1000, EndUS: 5500},
			{ID: 1, Parent: 0, Depth: 1, Kind: "rpc", Name: "read", Host: "client", StartUS: 1250, EndUS: 5250},
		},
	}
	sum := span.Summary{
		Ops: 3, ElapsedSeconds: 2, Clients: 1, WallSeconds: 2, SyscallSeconds: 1, AccountedPct: 99.5,
		Components: []span.Component{{Name: "server.cpu", Seconds: 0.5, PctOfWall: 25}},
		SlowOps:    []span.SlowOp{op},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/slowops", func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(sum) })
	mux.HandleFunc("/spans/17", func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(op) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var all bytes.Buffer
	slowops(&all, addr, nil)
	for _, want := range []string{
		"critical-path breakdown: 3 ops",
		"server.cpu",
		"  op 17       client     read            4.500ms  2 spans",
	} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("slowops lacks %q:\n%s", want, all.String())
		}
	}

	var tree bytes.Buffer
	slowops(&tree, addr, []string{"17"})
	want := "op 17: client/read 4.500ms\n" +
		"  syscall    read         client     +    0.000ms     4.500ms\n" +
		"    rpc        read         client     +    0.250ms     4.000ms\n" +
		"attribution:\n" +
		"  disk.arm         1.500ms\n" +
		"  server.cpu       2.000ms\n"
	if tree.String() != want {
		t.Errorf("slowops 17 printed\n%s\nwant\n%s", tree.String(), want)
	}
}

// TestShardedStatsSections: a member's section names the prefixes its
// shard owns (shard 0 also the default) and condenses its metrics text to
// state-table size and CPU/disk utilization, labeled or bare.
func TestShardedStatsSections(t *testing.T) {
	m := proto.ShardMap{Version: 3, Servers: []string{"a:1", "b:2"}, Assignments: []proto.ShardAssignment{
		{Prefix: "u00", Shard: 0}, {Prefix: "u01", Shard: 1}, {Prefix: "u02", Shard: 0},
	}}
	if got := strings.Join(shardPrefixes(m, 0), " "); got != "u00 u02 (default)" {
		t.Errorf("shard 0 owns %q", got)
	}
	if got := strings.Join(shardPrefixes(m, 1), " "); got != "u01" {
		t.Errorf("shard 1 owns %q", got)
	}
	var out bytes.Buffer
	shardSummary(&out, metricsBefore)
	want := "  state table: 7 entries\n  cpu: 25.0% busy\n  disk: 12.5% busy\n"
	if out.String() != want {
		t.Errorf("shard summary\n%s\nwant\n%s", out.String(), want)
	}
}
