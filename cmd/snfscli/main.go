// Command snfscli is a command-line client for snfsd: it speaks the NFS
// and Spritely NFS procedures over TCP and services callbacks, acting as
// an (uncached) client host.
//
// Usage:
//
//	snfscli -addr localhost:2049 ls /
//	snfscli -addr localhost:2049 cat /demo/file0.txt
//	snfscli -addr localhost:2049 put /demo/new.txt "contents"
//	snfscli -addr localhost:2049 stat /demo/file0.txt
//	snfscli -addr localhost:2049 mkdir /dir
//	snfscli -addr localhost:2049 rm /demo/new.txt
//	snfscli -addr localhost:2049 state /demo/file0.txt   (SNFS open/close round trip)
//	snfscli -addr localhost:2049 stats                   (server metrics, Prometheus text)
//	snfscli -addr localhost:2049 stats -watch 2s         (live deltas and rates)
//	snfscli -addr localhost:2049 audit                   (protocol-audit report)
//	snfscli -addr localhost:2049 shardmap                (federation shard map, if sharded)
//	snfscli -http localhost:9090 slowops                 (critical-path breakdown + slowest ops)
//	snfscli -http localhost:9090 slowops 17              (span tree of captured op 17)
//	snfscli -http localhost:9090 view                    (per-shard view: primary, backup, repl lag)
//
// stats -watch polls the metrics RPC and renders per-interval deltas and
// rates. slowops and view need snfsd -http (no NFS connection).
//
// Pointed at a member of a sharded federation (snfsd -shard-map), stats
// renders a per-shard section instead: each member is dialed for its own
// metrics, summarized as state-table occupancy and CPU/disk utilization.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/span"
	"spritelynfs/internal/xdr"
)

type cli struct {
	c *rpc.TCPClient
}

func main() {
	addr := flag.String("addr", "localhost:2049", "snfsd address")
	httpAddr := flag.String("http", "localhost:9090", "snfsd observability-plane address (for slowops and view)")
	watch := flag.Duration("watch", 0, "with stats: refresh every interval, showing deltas and rates")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// slowops and view talk HTTP only — no NFS connection to make or keep
	// alive.
	if args[0] == "slowops" {
		slowops(os.Stdout, *httpAddr, args[1:])
		return
	}
	if args[0] == "view" {
		viewCmd(*httpAddr)
		return
	}

	conn, err := rpc.DialTCP(*addr)
	if err != nil {
		fatal("connect: %v", err)
	}
	defer conn.Close()
	// Service callbacks: we cache nothing, so every callback succeeds
	// trivially.
	conn.OnCall = func(prog, proc uint32, body []byte) ([]byte, rpc.Status) {
		if prog == proto.ProgCallback {
			return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
		}
		return nil, rpc.StatusProcUnavail
	}
	c := &cli{c: conn}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		c.ls(arg(rest, 0, "/"))
	case "cat":
		c.cat(need(rest, 0, "path"))
	case "put":
		c.put(need(rest, 0, "path"), need(rest, 1, "contents"))
	case "stat":
		c.stat(need(rest, 0, "path"))
	case "mkdir":
		c.mkdir(need(rest, 0, "path"))
	case "rm":
		c.rm(need(rest, 0, "path"))
	case "state":
		c.state(need(rest, 0, "path"))
	case "dump":
		c.dump()
	case "stats":
		w := *watch
		if len(rest) > 0 {
			sub := flag.NewFlagSet("stats", flag.ExitOnError)
			sw := sub.Duration("watch", w, "refresh every interval, showing deltas and rates")
			sub.Parse(rest)
			w = *sw
		}
		if w > 0 {
			c.statsWatch(w)
		} else {
			c.stats()
		}
	case "audit":
		c.audit()
	case "shardmap":
		c.shardmap()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: snfscli [-addr host:port] [-http host:port] [-watch interval] ls|cat|put|stat|mkdir|rm|state|dump|stats|audit|shardmap|view|slowops <args>")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snfscli: "+format+"\n", args...)
	os.Exit(1)
}

func arg(args []string, i int, def string) string {
	if i < len(args) {
		return args[i]
	}
	return def
}

func need(args []string, i int, what string) string {
	if i >= len(args) {
		fatal("missing %s argument", what)
	}
	return args[i]
}

func (c *cli) call(procNum uint32, m proto.Message) []byte {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, procNum, proto.Marshal(m))
	if err != nil {
		fatal("%s: %v", proto.ProcName(proto.ProgNFS, procNum), err)
	}
	return body
}

func (c *cli) root() proto.Handle {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcMountRoot, nil)
	if err != nil {
		fatal("mountroot: %v", err)
	}
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("mountroot: %v", r.Status)
	}
	return r.Handle
}

// walk resolves an absolute path, one lookup per component.
func (c *cli) walk(path string) (proto.Handle, proto.Fattr) {
	h := c.root()
	var attr proto.Fattr
	attr.Type = 2
	for _, comp := range strings.Split(strings.Trim(path, "/"), "/") {
		if comp == "" {
			continue
		}
		body := c.call(proto.ProcLookup, &proto.DirOpArgs{Dir: h, Name: comp})
		r := proto.DecodeHandleReply(xdr.NewDecoder(body))
		if r.Status != proto.OK {
			fatal("lookup %q: %v", comp, r.Status)
		}
		h = r.Handle
		attr = r.Attr
	}
	return h, attr
}

func (c *cli) walkParent(path string) (proto.Handle, string) {
	trimmed := strings.Trim(path, "/")
	idx := strings.LastIndex(trimmed, "/")
	if idx < 0 {
		return c.root(), trimmed
	}
	h, _ := c.walk(trimmed[:idx])
	return h, trimmed[idx+1:]
}

func (c *cli) ls(path string) {
	h, _ := c.walk(path)
	body := c.call(proto.ProcReaddir, &proto.HandleArgs{Handle: h})
	r := proto.DecodeReaddirReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("readdir: %v", r.Status)
	}
	for _, e := range r.Entries {
		fmt.Printf("%10d  %s\n", e.Fileid, e.Name)
	}
}

func (c *cli) cat(path string) {
	h, attr := c.walk(path)
	var off int64
	for off < attr.Size {
		body := c.call(proto.ProcRead, &proto.ReadArgs{Handle: h, Offset: off, Count: 8192})
		r := proto.DecodeReadReply(xdr.NewDecoder(body))
		if r.Status != proto.OK {
			fatal("read: %v", r.Status)
		}
		if len(r.Data) == 0 {
			break
		}
		os.Stdout.Write(r.Data)
		off += int64(len(r.Data))
	}
}

func (c *cli) put(path, contents string) {
	dir, name := c.walkParent(path)
	body := c.call(proto.ProcCreate, &proto.CreateArgs{Dir: dir, Name: name, Mode: 0o644})
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("create: %v", r.Status)
	}
	wbody := c.call(proto.ProcWrite, &proto.WriteArgs{Handle: r.Handle, Offset: 0, Data: []byte(contents)})
	wr := proto.DecodeWriteReply(xdr.NewDecoder(wbody))
	if wr.Status != proto.OK {
		fatal("write: %v", wr.Status)
	}
	fmt.Printf("wrote %d bytes to %s\n", len(contents), path)
}

func (c *cli) stat(path string) {
	_, attr := c.walk(path)
	kind := "file"
	if attr.IsDir() {
		kind = "dir"
	}
	fmt.Printf("%s: %s ino=%d gen=%d size=%d mode=%o nlink=%d mtime=%dus\n",
		path, kind, attr.Fileid, attr.Gen, attr.Size, attr.Mode, attr.Nlink, attr.Mtime)
}

func (c *cli) mkdir(path string) {
	dir, name := c.walkParent(path)
	body := c.call(proto.ProcMkdir, &proto.CreateArgs{Dir: dir, Name: name, Mode: 0o755})
	r := proto.DecodeHandleReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("mkdir: %v", r.Status)
	}
	fmt.Printf("created %s\n", path)
}

func (c *cli) rm(path string) {
	dir, name := c.walkParent(path)
	body := c.call(proto.ProcRemove, &proto.DirOpArgs{Dir: dir, Name: name})
	r := proto.DecodeStatusReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("remove: %v", r.Status)
	}
	fmt.Printf("removed %s\n", path)
}

// state exercises the SNFS extension procedures: open for read, report
// the consistency reply, close.
func (c *cli) state(path string) {
	h, _ := c.walk(path)
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcOpen,
		proto.Marshal(&proto.OpenArgs{Handle: h}))
	if err == rpc.ErrProcUnavail {
		fmt.Println("server speaks plain NFS (open unavailable); a hybrid client would fall back")
		return
	}
	if err != nil {
		fatal("open: %v", err)
	}
	r := proto.DecodeOpenReply(xdr.NewDecoder(body))
	if r.Status != proto.OK && r.Status != proto.ErrInconsistent {
		fatal("open: %v", r.Status)
	}
	fmt.Printf("open %s: cacheEnabled=%v version=%d prevVersion=%d status=%v\n",
		path, r.CacheEnabled, r.Version, r.PrevVersion, r.Status)
	cbody, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcClose,
		proto.Marshal(&proto.CloseArgs{Handle: h}))
	if err != nil {
		fatal("close: %v", err)
	}
	cr := proto.DecodeStatusReply(xdr.NewDecoder(cbody))
	fmt.Printf("close %s: %v\n", path, cr.Status)
}

// fetchShardMap asks the server for its federation map; a plain (old or
// unsharded) server yields the zero map.
func (c *cli) fetchShardMap() proto.ShardMap {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcShardMap,
		proto.Marshal(&proto.ShardMapArgs{}))
	if err != nil {
		return proto.ShardMap{}
	}
	r := proto.DecodeShardMapReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		return proto.ShardMap{}
	}
	return r.Map
}

// shardmap prints the server's federation map.
func (c *cli) shardmap() {
	m := c.fetchShardMap()
	if m.IsZero() {
		fmt.Println("server is not sharded")
		return
	}
	fmt.Printf("shard map v%d: %d shards\n", m.Version, len(m.Servers))
	for i, addr := range m.Servers {
		fmt.Printf("  shard %d  %-24s %s\n", i, addr, strings.Join(shardPrefixes(m, i), " "))
	}
}

// shardPrefixes lists the root-level prefixes assigned to shard i (shard
// 0 also owns every unassigned name).
func shardPrefixes(m proto.ShardMap, i int) []string {
	var out []string
	for _, a := range m.Assignments {
		if int(a.Shard) == i {
			out = append(out, a.Prefix)
		}
	}
	if i == 0 {
		out = append(out, "(default)")
	}
	return out
}

// viewCmd renders the failover plane's per-shard view rows from the
// observability plane's /view endpoint: view number, primary, backup,
// and replication lag.
func viewCmd(addr string) {
	url := "http://" + addr + "/view"
	var rows []struct {
		Shard   uint32 `json:"shard"`
		View    uint64 `json:"view"`
		Primary string `json:"primary"`
		Backup  string `json:"backup"`
		Synced  bool   `json:"synced"`
		Lag     uint32 `json:"lag"`
	}
	if err := fetchJSON(url, &rows); err != nil {
		fatal("view: %v (is snfsd running with -http?)", err)
	}
	if len(rows) == 0 {
		fmt.Println("no view plane (server runs without replication)")
		return
	}
	fmt.Printf("%-6s %-6s %-24s %-24s %-7s %s\n", "SHARD", "VIEW", "PRIMARY", "BACKUP", "SYNCED", "LAG")
	for _, r := range rows {
		backup := r.Backup
		if backup == "" {
			backup = "-"
		}
		fmt.Printf("%-6d %-6d %-24s %-24s %-7v %d\n", r.Shard, r.View, r.Primary, backup, r.Synced, r.Lag)
	}
}

// stats prints the server's metrics registry (Prometheus text format):
// per-procedure serve-latency histograms, CPU gauges, and (for SNFS)
// state-table gauges. Against a sharded federation, it instead dials
// every member and renders one summary section per shard.
func (c *cli) stats() {
	if m := c.fetchShardMap(); !m.IsZero() {
		c.clusterStats(m)
		return
	}
	text, ok := c.metricsText()
	if !ok {
		fmt.Println("server does not export metrics")
		return
	}
	os.Stdout.WriteString(text)
	attrCacheSection(text)
}

// metricsText fetches the server's Prometheus text dump; ok is false
// when the server does not export metrics at all.
func (c *cli) metricsText() (string, bool) {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcMetrics, nil)
	if err == rpc.ErrProcUnavail {
		return "", false
	}
	if err != nil {
		fatal("metrics: %v", err)
	}
	r := proto.DecodeMetricsReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("metrics: %v", r.Status)
	}
	return r.Text, true
}

// statsWatch polls the metrics RPC every interval and renders the deltas:
// for each sample that moved, its current value, the change over the
// window, and the per-second rate. Ctrl-C to stop.
func (c *cli) statsWatch(interval time.Duration) {
	var prev map[string]float64
	prevAt := time.Now()
	for {
		text, ok := c.metricsText()
		if !ok {
			fatal("server does not export metrics")
		}
		cur := parseProm(text)
		now := time.Now()
		if prev != nil {
			renderWatch(os.Stdout, prev, cur, now.Sub(prevAt))
		} else {
			fmt.Printf("watching %d samples; first window closes in %s\n", len(cur), interval)
		}
		prev, prevAt = cur, now
		time.Sleep(interval)
	}
}

func renderWatch(w io.Writer, prev, cur map[string]float64, dt time.Duration) {
	fmt.Fprintf(w, "\x1b[H\x1b[2J%s  (%.1fs window; changed samples only)\n\n",
		time.Now().Format("15:04:05"), dt.Seconds())
	fmt.Fprintf(w, "%-64s %14s %12s %12s\n", "metric", "value", "delta", "rate/s")
	quiet := 0
	for _, n := range sortedKeys(cur) {
		d := cur[n] - prev[n]
		if d == 0 {
			quiet++
			continue
		}
		fmt.Fprintf(w, "%-64s %14.6g %+12.6g %12.6g\n", n, cur[n], d, d/dt.Seconds())
	}
	fmt.Fprintf(w, "\n%d samples unchanged\n", quiet)
}

// parseProm flattens Prometheus text output into sample -> value,
// keeping labeled samples distinct and skipping comment lines.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// slowops fetches the span-derived critical-path breakdown and slowest-
// operations capture from the observability plane (/slowops), or one
// captured span tree (/spans/<op>) when an op ID is given. Needs snfsd
// running with -spans and -http.
func slowops(w io.Writer, addr string, args []string) {
	if len(args) > 0 {
		var so span.SlowOp
		if err := fetchJSON("http://"+addr+"/spans/"+args[0], &so); err != nil {
			fatal("slowops: %v (is snfsd running with -spans and -http?)", err)
		}
		renderSpanTree(w, so)
		return
	}
	var s span.Summary
	if err := fetchJSON("http://"+addr+"/slowops", &s); err != nil {
		fatal("slowops: %v (is snfsd running with -spans and -http?)", err)
	}
	if s.Ops == 0 && s.BackgroundRoots == 0 {
		fmt.Fprintln(w, "no operations recorded yet (is snfsd running with -spans?)")
		return
	}
	s.Render(w)
	if len(s.SlowOps) > 0 {
		fmt.Fprintln(w, "\nslowest operations (snfscli slowops <op> for the span tree):")
		for _, so := range s.SlowOps {
			fmt.Fprintf(w, "  op %-8d %-10s %-10s %10.3fms  %d spans\n",
				so.Op, so.Host, so.Name, float64(so.DurUS)/1000, len(so.Spans))
		}
	}
}

// renderSpanTree prints one captured operation as an indented tree with
// per-span durations and offsets from the root.
func renderSpanTree(w io.Writer, so span.SlowOp) {
	fmt.Fprintf(w, "op %d: %s/%s %.3fms\n", so.Op, so.Host, so.Name, float64(so.DurUS)/1000)
	for _, sp := range so.Spans {
		fmt.Fprintf(w, "  %s%-10s %-12s %-10s +%9.3fms %9.3fms\n",
			strings.Repeat("  ", sp.Depth), sp.Kind, sp.Name, sp.Host,
			float64(sp.StartUS-so.StartUS)/1000, float64(sp.EndUS-sp.StartUS)/1000)
	}
	if len(so.CatsUS) > 0 {
		fmt.Fprintln(w, "attribution:")
		for _, k := range sortedKeys(so.CatsUS) {
			fmt.Fprintf(w, "  %-12s %9.3fms\n", k, float64(so.CatsUS[k])/1000)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// attrCacheSection summarizes the unified attribute-cache counters when
// the registry exports them (simulated worlds share one registry between
// clients and server; a plain snfsd has no client-side gauges, so the
// section is simply absent).
func attrCacheSection(text string) {
	rows := []struct{ metric, label string }{
		{"snfs_client_attrcache_hits_total", "hits"},
		{"snfs_client_attrcache_misses_total", "misses"},
		{"snfs_client_attrcache_expiries_total", "lease expiries"},
		{"snfs_client_attrcache_ingests_total", "piggyback ingests"},
		{"snfs_client_attrcache_shared_drops_total", "write-shared drops"},
	}
	var lines []string
	for _, r := range rows {
		if v, ok := promGauge(text, r.metric); ok {
			lines = append(lines, fmt.Sprintf("  %-18s %.0f", r.label, v))
		}
	}
	if len(lines) == 0 {
		return
	}
	fmt.Println("\nattribute cache:")
	for _, l := range lines {
		fmt.Println(l)
	}
}

// clusterStats renders one summary section per federation member,
// dialing each for its own metrics. A member that cannot be reached is
// reported, not fatal — the rest of the cluster still renders.
func (c *cli) clusterStats(m proto.ShardMap) {
	fmt.Printf("cluster: %d shards, map v%d\n", len(m.Servers), m.Version)
	for i, addr := range m.Servers {
		fmt.Printf("\nshard %d @ %s  owns: %s\n", i, addr, strings.Join(shardPrefixes(m, i), " "))
		conn, err := rpc.DialTCP(addr)
		if err != nil {
			fmt.Printf("  unreachable: %v\n", err)
			continue
		}
		conn.OnCall = func(prog, proc uint32, body []byte) ([]byte, rpc.Status) {
			if prog == proto.ProgCallback {
				return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
			}
			return nil, rpc.StatusProcUnavail
		}
		body, err := conn.Call(proto.ProgNFS, proto.VersNFS, proto.ProcMetrics, nil)
		if err != nil {
			fmt.Printf("  metrics: %v\n", err)
			conn.Close()
			continue
		}
		r := proto.DecodeMetricsReply(xdr.NewDecoder(body))
		if r.Status != proto.OK {
			fmt.Printf("  metrics: %v\n", r.Status)
			conn.Close()
			continue
		}
		shardSummary(os.Stdout, r.Text)
		conn.Close()
	}
}

// shardSummary condenses one member's Prometheus text to the three
// numbers the per-shard section shows.
func shardSummary(w io.Writer, text string) {
	if v, ok := promGauge(text, "snfs_server_state_table_size"); ok {
		fmt.Fprintf(w, "  state table: %.0f entries\n", v)
	}
	if v, ok := promGauge(text, "snfs_server_cpu_utilization"); ok {
		fmt.Fprintf(w, "  cpu: %.1f%% busy\n", v*100)
	}
	if v, ok := promGauge(text, "snfs_server_disk_utilization"); ok {
		fmt.Fprintf(w, "  disk: %.1f%% busy\n", v*100)
	}
}

// promGauge extracts the first sample of a metric from Prometheus text
// output, tolerating labels ("name{host="x"} 0.25") and bare samples.
func promGauge(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest[i+1:]), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// audit prints the server's protocol-audit report: events witnessed,
// per-invariant violation counts, and the most recent violations. Requires
// snfsd to be started with -audit-journal (the auditor is off otherwise).
func (c *cli) audit() {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcAudit, nil)
	if err == rpc.ErrProcUnavail {
		fmt.Println("server speaks plain NFS: no protocol auditor")
		return
	}
	if err != nil {
		fatal("audit: %v", err)
	}
	r := proto.DecodeAuditReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("audit: %v", r.Status)
	}
	os.Stdout.WriteString(r.Text)
}

// dump prints the server's consistency state table.
func (c *cli) dump() {
	body, err := c.c.Call(proto.ProgNFS, proto.VersNFS, proto.ProcDumpState, nil)
	if err == rpc.ErrProcUnavail {
		fmt.Println("server speaks plain NFS: no state table to dump")
		return
	}
	if err != nil {
		fatal("dumpstate: %v", err)
	}
	r := proto.DecodeDumpStateReply(xdr.NewDecoder(body))
	if r.Status != proto.OK {
		fatal("dumpstate: %v", r.Status)
	}
	fmt.Printf("server epoch %d, %d state-table entries\n", r.Epoch, len(r.Entries))
	for _, e := range r.Entries {
		inc := ""
		if e.Inconsistent {
			inc = " INCONSISTENT"
		}
		lw := ""
		if e.LastWriter != "" {
			lw = " lastWriter=" + e.LastWriter
		}
		fmt.Printf("  %-16s %-14s v%-4d%s%s\n", e.Handle, e.StateName, e.Version, lw, inc)
		for _, cl := range e.Clients {
			fmt.Printf("    client %-12s readers=%d writers=%d caching=%v\n",
				cl.Client, cl.Readers, cl.Writers, cl.Caching)
		}
	}
}
