package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spritelynfs/internal/cluster"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/xdr"
)

// planeReads are the plane's data endpoints: what run must serve from
// the event loop.
var planeReads = []string{"/metrics", "/vars", "/timeline", "/flight", "/slowops", "/shardmap", "/view"}

// TestDaemonReadsOnTheLoop runs the daemon in-process with every
// instrument armed and reads every plane endpoint and both dumps while
// several TCP clients drive it. Everything those readers touch is owned
// by the kernel's event loop, so under -race a read that bypasses the
// loop is reported here.
func TestDaemonReadsOnTheLoop(t *testing.T) {
	dir := t.TempDir()
	ln, plane := listen(t), listen(t)
	dumps := make(chan os.Signal)
	cfg := config{
		proto: cluster.SNFS, addr: ln.Addr().String(), workers: 8, populate: true,
		auditJournal: filepath.Join(dir, "audit.jsonl"),
		sampleEvery:  50 * time.Millisecond, flight: 1024, spans: 32,
		flightDump: filepath.Join(dir, "flight.txt"), metricsDump: filepath.Join(dir, "metrics.txt"),
		ln: ln, plane: plane, dumps: dumps,
	}
	stop := make(chan struct{})
	exited := make(chan error, 1)
	go func() { exited <- run(cfg, stop) }()
	base := "http://" + plane.Addr().String()

	var traffic, readers sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			if err := drive(ln.Addr().String(), i); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
			}
		}(i)
	}
	quiet := make(chan struct{})
	for _, path := range append(planeReads, "/healthz") {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-quiet:
					return
				default:
				}
				if _, err := get(base + path); err != nil {
					errs <- err
					return
				}
				// Beside the traffic, not instead of it: the race detector
				// needs the accesses, not a collision.
				time.Sleep(20 * time.Millisecond)
			}
		}(path)
	}
	dumps <- syscall.SIGUSR1
	dumps <- syscall.SIGUSR2
	traffic.Wait()
	close(quiet)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The files hold the latest dump: take both again now the ring holds
	// the whole run.
	dumps <- syscall.SIGUSR1
	dumps <- syscall.SIGUSR2

	checkPlane(t, base)
	for file, wants := range map[string][]string{
		"metrics.txt": {"# TYPE snfs_rpc_serve_us histogram", "audit: "},
		"flight.txt":  {"=== flight recorder dump (SIGUSR2): ", " rpc-serve op=", " state     op="},
	} {
		for _, want := range wants {
			if data := readWhenDone(t, filepath.Join(dir, file), want); !strings.Contains(data, want) {
				t.Errorf("%s lacks %q", file, want)
			}
		}
	}

	close(stop)
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still serving 10 s after stop")
	}
	if _, err := get(base + "/healthz"); err == nil {
		t.Error("plane still answering after run returned")
	}
	if _, err := rpc.DialTCP(ln.Addr().String()); err == nil {
		t.Error("file service still accepting after run returned")
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// get fetches url, failing on anything but 200.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

// readWhenDone reads a dump file once it holds want: the dump runs on
// the loop after the signal has been taken.
func readWhenDone(t *testing.T, path, want string) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		data, _ := os.ReadFile(path)
		if bytes.Contains(data, []byte(want)) || time.Now().After(deadline) {
			return string(data)
		}
	}
}

// drive is one client's traffic: mount, lookup, then rounds of open for
// write, an 8 KiB write, two unaligned writes each read back, getattr,
// lookup and close on a file of its own. A READ reply's data is the
// server's page, which the connection's writer reads off the loop, and
// the second unaligned write lands in the page the first read handed out.
func drive(addr string, i int) error {
	c, err := rpc.DialTCP(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.OnCall = func(prog, proc uint32, args []byte) ([]byte, rpc.Status) {
		return proto.Marshal(&proto.StatusReply{Status: proto.OK}), rpc.StatusOK
	}
	call := func(proc uint32, m, reply proto.Message) {
		var args []byte
		if m != nil {
			args = proto.Marshal(m)
		}
		body, cerr := c.Call(proto.ProgNFS, proto.VersNFS, proc, args)
		if cerr != nil && err == nil {
			err = fmt.Errorf("%s: %w", proto.ProcName(proto.ProgNFS, proc), cerr)
		}
		reply.XDR(xdr.NewDecoder(body).Codec())
	}
	var root, demo, f proto.HandleReply
	call(proto.ProcMountRoot, nil, &root)
	call(proto.ProcLookup, &proto.DirOpArgs{Dir: root.Handle, Name: "demo"}, &demo)
	name := fmt.Sprintf("client%d.dat", i)
	call(proto.ProcCreate, &proto.CreateArgs{Dir: demo.Handle, Name: name, Mode: 0o644}, &f)
	if err != nil {
		return err
	}
	if root.Status != proto.OK || demo.Status != proto.OK || f.Status != proto.OK {
		return fmt.Errorf("mount/lookup/create: %v %v %v", root.Status, demo.Status, f.Status)
	}
	for round := 0; round < 15 && err == nil; round++ {
		block := bytes.Repeat([]byte{byte('a' + round)}, 8192)
		var (
			open          proto.OpenReply
			wr, wr1, wr2  proto.WriteReply
			rd1, rd2      proto.ReadReply
			ga            proto.AttrReply
			lk            proto.HandleReply
			cl            proto.StatusReply
			patch1, want1 = []byte("first"), bytes.Clone(block)
		)
		copy(want1[10:], patch1)
		patch2, want2 := []byte("second"), bytes.Clone(want1)
		copy(want2[21:], patch2)
		call(proto.ProcOpen, &proto.OpenArgs{Handle: f.Handle, WriteMode: true}, &open)
		call(proto.ProcWrite, &proto.WriteArgs{Handle: f.Handle, Data: block}, &wr)
		call(proto.ProcWrite, &proto.WriteArgs{Handle: f.Handle, Offset: 10, Data: patch1}, &wr1)
		call(proto.ProcRead, &proto.ReadArgs{Handle: f.Handle, Count: 8192}, &rd1)
		call(proto.ProcWrite, &proto.WriteArgs{Handle: f.Handle, Offset: 21, Data: patch2}, &wr2)
		call(proto.ProcRead, &proto.ReadArgs{Handle: f.Handle, Count: 8192}, &rd2)
		call(proto.ProcGetattr, &proto.HandleArgs{Handle: f.Handle}, &ga)
		call(proto.ProcLookup, &proto.DirOpArgs{Dir: demo.Handle, Name: name}, &lk)
		call(proto.ProcClose, &proto.CloseArgs{Handle: f.Handle, WriteMode: true}, &cl)
		steps := []proto.Status{open.Status, wr.Status, wr1.Status, rd1.Status, wr2.Status, rd2.Status, ga.Status, lk.Status, cl.Status}
		for _, st := range steps {
			if st != proto.OK && err == nil {
				err = fmt.Errorf("round %d: status %v", round, st)
			}
		}
		if err == nil && (!bytes.Equal(rd1.Data, want1) || !bytes.Equal(rd2.Data, want2)) {
			err = fmt.Errorf("round %d: read back %d and %d bytes, not the file's", round, len(rd1.Data), len(rd2.Data))
		}
	}
	return err
}

// checkPlane checks the shape of every plane document after traffic.
func checkPlane(t *testing.T, base string) {
	t.Helper()
	doc := func(path string, v any) {
		t.Helper()
		body, err := get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			return
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
	}
	if body, err := get(base + "/metrics"); err != nil ||
		!bytes.Contains(body, []byte("# TYPE snfs_rpc_serve_us histogram")) || !bytes.Contains(body, []byte("# HELP ")) {
		t.Errorf("/metrics: %v\n%.400s", err, body)
	}
	var vars struct {
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	doc("/vars", &vars)
	if len(vars.Histograms) == 0 {
		t.Error("/vars has no histograms")
	}
	// A rate needs two samples: poll until the sampler has taken them.
	rates := 0
	for deadline := time.Now().Add(5 * time.Second); rates == 0 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var tl struct {
			Series []struct {
				Name string `json:"name"`
			} `json:"series"`
		}
		doc("/timeline", &tl)
		for _, s := range tl.Series {
			if strings.HasSuffix(s.Name, ":rate") {
				rates++
			}
		}
	}
	if rates == 0 {
		t.Error("/timeline has no :rate series")
	}

	var flight struct {
		Total   *int64 `json:"total"`
		Trigger string `json:"trigger"`
		Events  []struct {
			Seq    *int64  `json:"seq"`
			AtUS   *int64  `json:"at_us"`
			Host   string  `json:"host"`
			Kind   string  `json:"kind"`
			Op     uint64  `json:"op"`
			Detail *string `json:"detail"`
		} `json:"events"`
	}
	doc("/flight", &flight)
	if flight.Total == nil || *flight.Total < int64(len(flight.Events)) || len(flight.Events) == 0 || flight.Trigger != "http" {
		t.Fatalf("/flight: total %v, %d events, trigger %q", flight.Total, len(flight.Events), flight.Trigger)
	}
	kinds := map[string]int{}
	for _, e := range flight.Events {
		if e.Seq == nil || e.AtUS == nil || e.Detail == nil || e.Host != "server" {
			t.Fatalf("/flight event lacks a field: %+v", e)
		}
		kinds[e.Kind]++
	}
	for _, k := range []string{"rpc-serve", "rpc-reply", "state"} {
		if kinds[k] == 0 {
			t.Errorf("/flight holds no %s event: %v", k, kinds)
		}
	}

	var slow struct {
		BackgroundRoots int `json:"background_roots"`
		SlowOps         []struct {
			Op uint64 `json:"op"`
		} `json:"slow_ops"`
	}
	doc("/slowops", &slow)
	// The recorder sees server-side serve roots (the syscalls live in the
	// clients, another process), so they count as background roots.
	if slow.BackgroundRoots == 0 || len(slow.SlowOps) == 0 {
		t.Fatalf("/slowops: %d background roots, %d slow ops", slow.BackgroundRoots, len(slow.SlowOps))
	}
	var tree struct {
		Spans []json.RawMessage `json:"spans"`
	}
	doc(fmt.Sprintf("/spans/%d", slow.SlowOps[0].Op), &tree)
	if len(tree.Spans) == 0 {
		t.Errorf("/spans/%d has no spans", slow.SlowOps[0].Op)
	}
	for path, code := range map[string]int{"/spans/999999999": 404, "/spans/bogus": 400} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, code)
		}
	}
	doc("/debug/pprof/heap", nil)
}

// TestShardedDaemonsServeData starts a two-member federation, each
// member with the same -shard-map, and runs ls and a read against each:
// shard 0 serves the populated /demo, shard 1 a file it owns by the
// map's /src assignment, written over the wire first. Every call is a
// data-plane call, which a member serves only while the map names its
// own address as its shard's primary.
func TestShardedDaemonsServeData(t *testing.T) {
	lns := []net.Listener{listen(t), listen(t)}
	smap, err := cluster.ParseMapSpec(fmt.Sprintf("0=%s,1=%s,/src=1", lns[0].Addr(), lns[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	exited := make(chan error, len(lns))
	for i, ln := range lns {
		cfg := config{
			proto: cluster.SNFS, addr: ln.Addr().String(), workers: 2, populate: true,
			smap: smap, shardID: uint32(i), ln: ln, dumps: make(chan os.Signal),
		}
		go func() { exited <- run(cfg, stop) }()
	}
	defer func() {
		close(stop)
		for range lns {
			if err := <-exited; err != nil {
				t.Errorf("run: %v", err)
			}
		}
	}()

	for i, ln := range lns {
		c, err := rpc.DialTCP(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		call := func(proc uint32, m, reply proto.Message) {
			t.Helper()
			var args []byte
			if m != nil {
				args = proto.Marshal(m)
			}
			body, err := c.Call(proto.ProgNFS, proto.VersNFS, proc, args)
			if err != nil {
				t.Fatalf("shard %d %s: %v", i, proto.ProcName(proto.ProgNFS, proc), err)
			}
			reply.XDR(xdr.NewDecoder(body).Codec())
		}
		var root, dir, f proto.HandleReply
		call(proto.ProcMountRoot, nil, &root)
		dirName, name, want := "demo", "file0.txt", "hello from snfsd\n"
		if i == 1 {
			dir, dirName, name, want = root, "", "src", "hello from shard 1\n"
			var open proto.OpenReply
			var wr proto.WriteReply
			var cl proto.StatusReply
			call(proto.ProcCreate, &proto.CreateArgs{Dir: root.Handle, Name: name, Mode: 0o644}, &f)
			call(proto.ProcOpen, &proto.OpenArgs{Handle: f.Handle, WriteMode: true}, &open)
			call(proto.ProcWrite, &proto.WriteArgs{Handle: f.Handle, Data: []byte(want)}, &wr)
			call(proto.ProcClose, &proto.CloseArgs{Handle: f.Handle, WriteMode: true}, &cl)
			if f.Status != proto.OK || open.Status != proto.OK || wr.Status != proto.OK || cl.Status != proto.OK {
				t.Fatalf("shard 1 create/open/write/close: %v %v %v %v", f.Status, open.Status, wr.Status, cl.Status)
			}
		} else {
			call(proto.ProcLookup, &proto.DirOpArgs{Dir: root.Handle, Name: dirName}, &dir)
		}
		var ls proto.ReaddirReply
		call(proto.ProcReaddir, &proto.HandleArgs{Handle: dir.Handle}, &ls)
		if root.Status != proto.OK || dir.Status != proto.OK || ls.Status != proto.OK {
			t.Fatalf("shard %d mount/lookup/readdir: %v %v %v", i, root.Status, dir.Status, ls.Status)
		}
		listed := false
		for _, e := range ls.Entries {
			listed = listed || e.Name == name
		}
		if !listed {
			t.Errorf("shard %d: ls /%s lists %v, not %s", i, dirName, ls.Entries, name)
		}
		var rd proto.ReadReply
		call(proto.ProcLookup, &proto.DirOpArgs{Dir: dir.Handle, Name: name}, &f)
		call(proto.ProcRead, &proto.ReadArgs{Handle: f.Handle, Count: 8192}, &rd)
		if f.Status != proto.OK || rd.Status != proto.OK || string(rd.Data) != want {
			t.Errorf("shard %d: read /%s/%s: %v %v %q, want %q", i, dirName, name, f.Status, rd.Status, rd.Data, want)
		}
	}
}

// TestUnalignedTailsReachTheSocket: a short block whose length is not a
// multiple of 4 goes from the server's page to the wire by reference,
// its XDR pad carried apart until the gateway's writer puts it on the
// socket. Files of 1, 4,097 and 8,191 bytes are written over a TCPClient
// and read back through it, and then read over a raw connection, where
// every reply record must be exactly its header and proto.Marshal of its
// ReadReply: the pad included, nothing after it.
func TestUnalignedTailsReachTheSocket(t *testing.T) {
	ln := listen(t)
	cfg := config{proto: cluster.SNFS, addr: ln.Addr().String(), workers: 2, ln: ln, dumps: make(chan os.Signal)}
	stop := make(chan struct{})
	exited := make(chan error, 1)
	go func() { exited <- run(cfg, stop) }()
	defer func() {
		close(stop)
		if err := <-exited; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	c, err := rpc.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func(proc uint32, m, reply proto.Message) {
		t.Helper()
		var args []byte
		if m != nil {
			args = proto.Marshal(m)
		}
		body, err := c.Call(proto.ProgNFS, proto.VersNFS, proc, args)
		if err != nil {
			t.Fatalf("%s: %v", proto.ProcName(proto.ProgNFS, proc), err)
		}
		reply.XDR(xdr.NewDecoder(body).Codec())
	}
	var root proto.HandleReply
	call(proto.ProcMountRoot, nil, &root)
	sizes := []int{1, 4097, 8191}
	files := make([]proto.Handle, len(sizes))
	contents := make([][]byte, len(sizes))
	for i, n := range sizes {
		contents[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		var f proto.HandleReply
		var open proto.OpenReply
		var wr proto.WriteReply
		var cl proto.StatusReply
		call(proto.ProcCreate, &proto.CreateArgs{Dir: root.Handle, Name: fmt.Sprintf("f%d", n), Mode: 0o644}, &f)
		call(proto.ProcOpen, &proto.OpenArgs{Handle: f.Handle, WriteMode: true}, &open)
		call(proto.ProcWrite, &proto.WriteArgs{Handle: f.Handle, Data: contents[i]}, &wr)
		call(proto.ProcClose, &proto.CloseArgs{Handle: f.Handle, WriteMode: true}, &cl)
		if f.Status != proto.OK || open.Status != proto.OK || wr.Status != proto.OK || cl.Status != proto.OK {
			t.Fatalf("%d bytes: create/open/write/close: %v %v %v %v", n, f.Status, open.Status, wr.Status, cl.Status)
		}
		files[i] = f.Handle
	}

	// A record whose pad is missing, or whose length disagrees with its
	// bytes, leaves the reader waiting on a stream out of step: the
	// deadline turns that into a failure.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	rr := rpc.NewRecordReader(conn)
	for i, n := range sizes {
		xid := uint32(100 + i)
		e := xdr.NewEncoder()
		for _, w := range []uint32{xid, 0, proto.ProgNFS, proto.VersNFS, proto.ProcRead} { // xid, call, prog, vers, proc
			e.Uint32(w)
		}
		e.Uint64(0) // op
		(&proto.ReadArgs{Handle: files[i], Count: 8192}).XDR(e.Codec())
		if err := rpc.WriteRecord(conn, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		rec, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		var d xdr.Decoder
		d.Reset(rec)
		hdr := []uint32{d.Uint32(), d.Uint32(), d.Uint32()} // xid, reply, status
		var r proto.ReadReply
		r.XDR(d.Codec())
		if d.Err() != nil || hdr[0] != xid || hdr[1] != 1 || hdr[2] != uint32(rpc.StatusOK) || r.Status != proto.OK {
			t.Fatalf("%d bytes: reply header %v, status %v, decode %v", n, hdr, r.Status, d.Err())
		}
		want := append(bytes.Clone(rec[:12]), proto.Marshal(&proto.ReadReply{Status: proto.OK, Attr: r.Attr, Data: contents[i]})...)
		if !bytes.Equal(rec, want) {
			t.Errorf("%d bytes: the %d-byte record is not its header and proto.Marshal of its reply (%d bytes)", n, len(rec), len(want))
		}
		var rd proto.ReadReply
		if call(proto.ProcRead, &proto.ReadArgs{Handle: files[i], Count: 8192}, &rd); rd.Status != proto.OK || !bytes.Equal(rd.Data, contents[i]) {
			t.Errorf("%d bytes written over a TCPClient read back through it as %d (%v)", n, len(rd.Data), rd.Status)
		}
	}
}
