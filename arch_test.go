package spritelynfs

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/core"
	"spritelynfs/internal/harness"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/trace"
	"spritelynfs/internal/view"
)

// TestStructuralCeilings holds the repository's structural counts at
// ceilings, so that none of them grows by accident: a number may fall but
// not rise. A change that lowers a number lowers its ceiling here in the
// same change, so the room it made cannot be spent quietly later.
func TestStructuralCeilings(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, chargeRead := reflect.TypeOf(&localfs.Media{}).MethodByName("ChargeRead")
	_, onBusy := reflect.TypeOf(sim.Resource{}).FieldByName("OnBusy")
	sinkMethods := countSinkMethods(t, "SetSpans")
	for _, c := range []struct {
		what     string
		got, max int
	}{
		// Modes and instruments are configuration surface: every field
		// doubles a test matrix or wires another sink.
		{"harness.Params fields", reflect.TypeOf(harness.Params{}).NumField(), 30},
		{"cluster.Config fields", reflect.TypeOf(cluster.Config{}).NumField(), 7},
		// One value, one constant: a setting no driver varies is not a
		// field.
		{"rpc.Options fields", reflect.TypeOf(rpc.Options{}).NumField(), 2},
		{"client.SNFSOptions fields", reflect.TypeOf(client.SNFSOptions{}).NumField(), 5},
		{"view.Config fields", reflect.TypeOf(view.Config{}).NumField(), 2},
		{"scenario.Config fields", reflect.TypeOf(scenario.Config{}).NumField(), 7},
		{"harness.FleetOptions fields", reflect.TypeOf(harness.FleetOptions{}).NumField(), 2},
		{"trace.Instruments fields", reflect.TypeOf(trace.Instruments{}).NumField(), 4},
		// One server host, one client host: a protocol server or client
		// is assembled in one place (internal/cluster/host.go).
		{"server.New*/client.New* without exactly one non-test caller outside bench/", countConstructorsWithoutOneCaller(t), 0},
		{"snfsd flags", countFlags(t, "cmd/snfsd"), 13},
		// The protocol core stays free of the observability stack.
		{"internal/core importing internal/trace", b2i(imports(t, "internal/core")["spritelynfs/internal/trace"]), 0},
		{"ci.yml lines", strings.Count(string(ci), "\n"), 70},
		{"ci.yml jobs", countJobs(string(ci)), 2},
		// One read path: Media.ReadAt reads, freezes and charges together.
		{"exported localfs.Media.ChargeRead", b2i(chargeRead), 0},
		// One description per message: its XDR method both encodes and
		// decodes it. The named decoders left are the benchmark's.
		{"internal/proto non-test lines", countLines(t, "internal/proto"), 1361},
		{"exported proto.Decode* functions", countDecoders(t, "internal/proto"), 5},
		// One row per procedure: a server decodes a call's arguments in
		// one place, its shared admission step.
		{"call-argument decoders (d.ResetTail(args, tail)) in internal/server non-test files", countText(t, "internal/server", "d.ResetTail(args, tail)"), 1},
		// A bulk payload is its message's last field and goes by
		// reference, as the image's tail (xdr.Codec.Tail), never behind a
		// trailer as an inline view.
		{"OpaqueRef payload fields in internal/proto non-test files", countText(t, "internal/proto", "OpaqueRef("), 0},
		// One read path: vfs.File.ReadInto fills the caller's buffer. The
		// allocating ReadAt(p, off, n) adapters left are the benchmark's.
		{"ReadAt(p, off, n) adapter methods", countReadAtAdapters(t), 3},
		// One place begins a syscall: a root span opens where the op is
		// minted (client.Base.syscall), or where none is (the local
		// mount), never in a wrapper around either.
		{"span Recorder.Root calls in non-test files", countRootCalls(t), 2},
		// One derivation of Table 4-1: a state-table entry's state is
		// set only by e.state = e.derive().
		{"state assignments in internal/core other than e.state = e.derive()", countStateSets(t, "internal/core"), 0},
		{"internal/core non-test lines", countLines(t, "internal/core"), 879},
		// One client rule for the cache: core.FileRecord decides what every
		// open, reopen and callback does to the cached blocks, Base.apply
		// carries it out, and one callback service decodes and counts
		// callbacks for every protocol.
		{"callback services registered in internal/client", countText(t, "internal/client", "Serve(proto.ProgCallback"), 1},
		{"cache.InvalidateFile calls in internal/client/snfs.go and rfs.go",
			countFileText(t, "internal/client/snfs.go", "InvalidateFile(") + countFileText(t, "internal/client/rfs.go", "InvalidateFile("), 0},
		// A cached block carries its own LRU and file-chain links, and a
		// sim.Signal or WaitGroup is usable as a zero value inside the
		// state it guards: neither needs an object of its own.
		{"container/list imports outside tests", countImporters(t, "container/list"), 0},
		{"sim.NewSignal/sim.NewWaitGroup declarations", countFuncs(t, "internal/sim", "NewSignal", "NewWaitGroup"), 0},
		// One time series: Figures 5-1/5-2 are a view of the sampled
		// timeline, not a second recorder fed by the server and the CPU.
		{"stats.TimeSeries/server.Series/Resource.OnBusy declarations",
			countTypes(t, "internal/stats", "TimeSeries") + countTypes(t, "internal/server", "Series") + b2i(onBusy), 0},
		// A message is encoded by a static call in the frame that built
		// it (rpc.Encode, Endpoint.CallXDR), so no argument or reply
		// struct reaches the heap on a round trip. A StatusError is an
		// error path's.
		{"&proto.T{…} escaping to the heap in the RPC packages (StatusError excepted)", countEscapingMessages(t), 0},
		// One write-back: every dirty block a client sends home from its
		// cache goes through one step (Base.writeBlock), the only place a
		// returning WRITE cleans the generation it sent, and sync(2) is
		// one pass for every protocol.
		{"MarkCleanIf( calls in internal/client non-test files", countText(t, "internal/client", "MarkCleanIf("), 1},
		{"SyncAll methods in internal/client", countMethods(t, "internal/client", "SyncAll"), 1},
		{"proto.ProcWrite in internal/client non-test files", countText(t, "internal/client", "proto.ProcWrite"), 1},
		// One server life cycle: every protocol's server crashes and
		// reboots through server.Base, and one Base step delivers every
		// callback under one Workers-1 semaphore.
		{"Crash methods in internal/server", countMethods(t, "internal/server", "Crash"), 1},
		{"Reboot methods in internal/server", countMethods(t, "internal/server", "Reboot"), 1},
		{"proto.ProgCallback in internal/server non-test files", countText(t, "internal/server", "proto.ProgCallback"), 1},
		{"sim.NewSemaphore in internal/server non-test files", countText(t, "internal/server", "sim.NewSemaphore"), 1},
		{"internal/server non-test lines", countLines(t, "internal/server"), 2092},
		// One open file: every protocol opens, lists and reads a file
		// through Base, and what a protocol adds there is a field its
		// constructor sets.
		{"types in internal/client implementing vfs.File", countFileTypes(t), 1},
		{"Open methods in internal/client", countMethods(t, "internal/client", "Open"), 1},
		{"Readdir methods in internal/client", countMethods(t, "internal/client", "Readdir"), 1},
		{"proto.ProcOpen in internal/client non-test files", countText(t, "internal/client", "proto.ProcOpen"), 1},
		{"internal/client non-test lines", countLines(t, "internal/client"), 2379},
		// One path walk: vfs.Walk splices every link's target into the
		// path, under the one bound, for every file system, and a walk
		// scans its path in place.
		{"functions expanding symlinks (a readlink call beside a link bound) in non-test files", countLinkExpansions(t), 1},
		{"symlink bounds (constants named for one, literals passed as a walk's depth) in non-test files", countLinkBounds(t), 1},
		{"vfs.SplitPath calls in non-test files", countCalls(t, "SplitPath"), 0},
		{"internal/localmount non-test lines", countLines(t, "internal/localmount"), 320},
		// One counter per procedure: an endpoint counts the calls it
		// starts, a server the calls it serves, each in one place
		// (Endpoint.start, server.Base.account).
		{"(*stats.Ops).Inc calls in non-test files", countMethodCalls(t, true, "(*spritelynfs/internal/stats.Ops).Inc"), 2},
		// One source per reported number: the state table and the
		// endpoint keep no second count of what those two count.
		{"core.Stats fields", reflect.TypeOf(core.Stats{}).NumField(), 4},
		{"rpc.Stats fields", reflect.TypeOf(rpc.Stats{}).NumField(), 6},
		// The park hook is a test's instrument, not a knob: nothing but
		// a test sets it.
		{"(*sim.Kernel).OnPark calls in non-test files", countMethodCalls(t, true, "(*spritelynfs/internal/sim.Kernel).OnPark"), 0},
		// One way to call inside the simulation: Endpoint.Call; the
		// start/wait halves it composes stay unexported.
		{"rpc.Endpoint.Start declarations", countMethods(t, "internal/rpc", "Start", "Endpoint"), 0},
		// One event stream: a component takes its sinks through one
		// Attach, and the setters the benchmark pins are adapters over it
		// that nothing else calls.
		{"server.Base.SetSpans and trace.Tracer.RecordOp calls outside bench/", countMethodCalls(t, false,
			"(*spritelynfs/internal/server.Base).SetSpans", "(*spritelynfs/internal/trace.Tracer).RecordOp"), 0},
		{"sink-attaching methods of rpc.Endpoint", sinkMethods["rpc.Endpoint"], 1},
		{"sink-attaching methods of server.Base but the benchmark's SetSpans", sinkMethods["server.Base"], 1},
		{"sink-attaching methods of client.Base", sinkMethods["client.Base"], 1},
		{"internal/rpc non-test lines", countLines(t, "internal/rpc"), 1809},
		{"internal/cluster non-test lines", countLines(t, "internal/cluster"), 1070},
		// Extensions pay rent: one row per extension of DESIGN §5's rent
		// table, the lines it owns, so an extension cannot grow unseen.
		{"§5 delayed close non-test lines", rentLines(t, "internal/client:(*Base).settleDelayedClose"), 9},
		{"§5 NFS/SNFS coexistence non-test lines", rentLines(t, "internal/server:(*SNFSServer).serveHybrid"), 41},
		{"§5 crash recovery non-test lines", rentLines(t, "internal/server:(*Base).Crash", "internal/server:(*Base).Reboot",
			"internal/server:(*Base).newIncarnation", "internal/server:(*SNFSServer).InGrace", "internal/server:(*SNFSServer).serveReopen",
			"internal/client:(*SNFSClient).keepaliveDaemon", "internal/client:(*SNFSClient).recover", "internal/client:(*SNFSClient).reopenWithRetry",
			"internal/core:(*Table).Recover", "internal/core:(*FileRecord).Reopen"), 199},
		{"§5 name cache non-test lines", rentLines(t, "internal/client:(*SNFSClient).lookupName", "internal/client:(*SNFSClient).cacheName",
			"internal/client:(*SNFSClient).setName", "internal/client:(*SNFSClient).forgetDir", "internal/client:(*SNFSClient).revokeLease",
			"internal/client:(*SNFSClient).settleLeases", "internal/server:(*SNFSServer).invalidateNameCaches"), 112},
		{"§5 state-table reclamation non-test lines", rentLines(t, "internal/core:(*Table).forget", "internal/core:(*Table).oldest",
			"internal/core:(*Table).ReclaimCandidates", "internal/core:(*Table).Reclaimed"), 65},
		{"§5 duplicate-request cache non-test lines", rentLines(t, "internal/rpc/dupcache.go"), 108},
		{"§5 state dump non-test lines", rentLines(t, "internal/server:(*SNFSServer).dumpState"), 25},
		{"§5 probe-interval sweep non-test lines", rentLines(t, "internal/harness/probesweep.go"), 112},
		{"§5 scale experiment non-test lines", rentLines(t, "internal/harness/scale.go"), 247},
		{"§5 RFS non-test lines", rentLines(t, "internal/server/rfs.go", "internal/client/rfs.go", "internal/harness/rfs.go"), 315},
		{"§5 daemon and CLI non-test lines", rentLines(t, "cmd/snfsd", "cmd/snfscli", "internal/rpc/tcp.go", "internal/sim/realtime.go"), 1750},
		{"§5 trace non-test lines", rentLines(t, "internal/trace"), 460},
		{"§5 metrics non-test lines", rentLines(t, "internal/metrics"), 470},
		{"§5 audit non-test lines", rentLines(t, "internal/audit"), 911},
		{"§5 sharded federation non-test lines", rentLines(t, "internal/cluster/cluster.go", "internal/cluster/router.go",
			"internal/cluster/mapspec.go", "internal/proto/shardmap.go", "internal/harness/cluster.go",
			"internal/server:(*Base).SetShardMap", "internal/server:(*callArgs).dirNames", "internal/server:(*Base).routeCheck",
			"internal/server:notHomeReply"), 1176},
		{"§5 write gathering and COMMIT non-test lines", rentLines(t, "internal/disk/sched.go", "internal/client:(*Base).commit"), 192},
		{"§5 attribute cache and compound calls non-test lines", rentLines(t, "internal/client/attrcache.go",
			"internal/client:(*Base).lookupPath", "internal/client:(*Base).ingestWcc", "internal/client:(*Base).wccCall",
			"internal/client:(*Base).readdirAttrs", "internal/server:(*Base).wccReply"), 246},
		{"§5 tsdb non-test lines", rentLines(t, "internal/tsdb"), 460},
		{"§5 span non-test lines", rentLines(t, "internal/span"), 742},
		{"§5 replicated shards non-test lines", rentLines(t, "internal/view", "internal/server/repl.go", "internal/proto/repl.go",
			"internal/harness/failover.go", "internal/server:(*Base).isOwner", "internal/server:(*Base).ownerCheck",
			"internal/server:(*Base).noteHealed", "internal/server:(*Base).replWrite", "internal/server:(*Base).replCommit"), 1193},
		{"§5 wire path non-test lines", rentLines(t, "internal/xdr", "internal/rpc/rpc.go", "internal/rpc/queue.go"), 1677},
		{"§5 scenario engine non-test lines", rentLines(t, "internal/scenario", "internal/harness/fleet.go", "internal/sim/executor.go",
			"cmd/snfs-bench/scenario.go"), 888},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d, above its ceiling of %d", c.what, c.got, c.max)
		}
	}
}

// countMethodCalls counts the calls of methods, named as
// types.Func.FullName names them, in the non-test files of every package
// under internal/, cmd/, examples/ and, with bench, bench/.
func countMethodCalls(t *testing.T, bench bool, methods ...string) int {
	var dirs []string
	if bench {
		dirs = append(dirs, "bench")
	}
	for _, pattern := range []string{"internal/*", "cmd/*", "examples/*"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, matches...)
	}
	n := 0
	for _, pkg := range typeCheck(t, dirs...) {
		for _, f := range pkg.files {
			ast.Inspect(f, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if fn, ok := pkg.info.Uses[sel.Sel].(*types.Func); ok && slices.Contains(methods, fn.FullName()) {
							n++
						}
					}
				}
				return true
			})
		}
	}
	return n
}

// countSinkMethods counts, for each of rpc.Endpoint, server.Base and
// client.Base, the exported methods it declares that take an instrument
// — the trace.Instruments bundle or one of its sinks — but those named in
// skip.
func countSinkMethods(t *testing.T, skip ...string) map[string]int {
	sinks := []string{"spritelynfs/internal/trace.Instruments", "*spritelynfs/internal/metrics.Registry",
		"*spritelynfs/internal/span.Recorder", "*spritelynfs/internal/trace.Tracer", "*spritelynfs/internal/audit.Auditor"}
	counts := map[string]int{}
	pkgs := typeCheck(t, "internal/rpc", "internal/server", "internal/client")
	for i, typ := range []string{"Endpoint", "Base", "Base"} {
		named := pkgs[i].types.Scope().Lookup(typ).Type().(*types.Named)
		key := pkgs[i].types.Name() + "." + typ
		for m := range named.NumMethods() {
			fn := named.Method(m)
			if !fn.Exported() {
				continue
			}
			params := fn.Type().(*types.Signature).Params()
			for p := range params.Len() {
				if slices.Contains(sinks, params.At(p).Type().String()) && !slices.Contains(skip, fn.Name()) {
					counts[key]++
					break
				}
			}
		}
	}
	return counts
}

// countFileTypes counts the types internal/client declares whose values
// or pointers implement vfs.File.
func countFileTypes(t *testing.T) int {
	pkg := typeCheck(t, "internal/client")[0].types
	var file *types.Interface
	for _, imp := range pkg.Imports() {
		if imp.Path() == "spritelynfs/internal/vfs" {
			file = imp.Scope().Lookup("File").Type().Underlying().(*types.Interface)
		}
	}
	n := 0
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !types.IsInterface(tn.Type()) &&
			(types.Implements(tn.Type(), file) || types.Implements(types.NewPointer(tn.Type()), file)) {
			n++
		}
	}
	return n
}

// calleeName is the name a call expression calls: a function's, or a
// method's or package member's after the dot.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// countCalls counts the calls of functions or methods named name in the
// module's non-test files.
func countCalls(t *testing.T, name string) int {
	n := 0
	for _, f := range moduleFiles(t, 0) {
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok && calleeName(call) == name {
				n++
			}
			return true
		})
	}
	return n
}

// linkBound matches a name for a bound on the symbolic links a walk
// follows.
var linkBound = regexp.MustCompile(`(?i)link.*(depth|max)|max.*link`)

// countLinkExpansions counts the functions, in the module's non-test
// files, that expand a symbolic link into a walk: a call of a readlink
// beside an identifier naming a depth or a link bound.
func countLinkExpansions(t *testing.T) int {
	n := 0
	for _, f := range moduleFiles(t, 0) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			readlink, bound := false, false
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				switch x := node.(type) {
				case *ast.CallExpr:
					readlink = readlink || strings.Contains(strings.ToLower(calleeName(x)), "readlink")
				case *ast.Ident:
					bound = bound || strings.Contains(strings.ToLower(x.Name), "depth") || linkBound.MatchString(x.Name)
				}
				return true
			})
			if readlink && bound {
				n++
			}
		}
	}
	return n
}

// countLinkBounds counts the bounds on a walk's symbolic links in the
// module's non-test files: the constants named for one, and the integer
// literals passed for a walk function's parameter named depth.
func countLinkBounds(t *testing.T) int {
	files := moduleFiles(t, 0)
	depthArg := map[string][]int{} // a walk's name → its depth parameters' indexes
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.Contains(strings.ToLower(fn.Name.Name), "walk") {
				i := 0
				for _, field := range fn.Type.Params.List {
					for _, name := range field.Names {
						if name.Name == "depth" {
							depthArg[fn.Name.Name] = append(depthArg[fn.Name.Name], i)
						}
						i++
					}
				}
			}
		}
	}
	n := 0
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && x.Tok == token.CONST {
						for _, name := range vs.Names {
							n += b2i(linkBound.MatchString(name.Name))
						}
					}
				}
			case *ast.CallExpr:
				for _, i := range depthArg[calleeName(x)] {
					if i < len(x.Args) {
						_, lit := x.Args[i].(*ast.BasicLit)
						n += b2i(lit)
					}
				}
			}
			return true
		})
	}
	return n
}

// countLines counts the lines of dir's non-test Go files.
func countLines(t *testing.T, dir string) int { return countText(t, dir, "\n") }

// rentLines counts the non-test lines an extension owns. Each of owns
// names a package directory, a file, or a function a shared package
// declares, as dir:Func or dir:(*T).M, counted from its doc comment to
// its closing brace.
func rentLines(t *testing.T, owns ...string) int {
	n := 0
	for _, own := range owns {
		dir, fn, ok := strings.Cut(own, ":")
		switch {
		case ok:
			n += countFuncLines(t, dir, fn)
		case strings.HasSuffix(own, ".go"):
			n += countFileText(t, own, "\n")
		default:
			n += countLines(t, own)
		}
	}
	return n
}

// countFuncLines counts the lines of the function dir's non-test files
// declare under name (funcName's form), and fails if none does.
func countFuncLines(t *testing.T, dir, name string) int {
	fset := token.NewFileSet()
	for _, file := range goFiles(t, dir) {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && funcName(fn) == name {
				start := fn.Pos()
				if fn.Doc != nil {
					start = fn.Doc.Pos()
				}
				return fset.Position(fn.End()).Line - fset.Position(start).Line + 1
			}
		}
	}
	t.Errorf("%s declares no %s", dir, name)
	return 0
}

// countText counts the occurrences of s in dir's non-test Go files.
func countText(t *testing.T, dir, s string) int {
	n := 0
	for _, name := range goFiles(t, dir) {
		n += countFileText(t, name, s)
	}
	return n
}

// countFileText counts the occurrences of s in one file.
func countFileText(t *testing.T, name, s string) int {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), s)
}

// countStateSets counts the places in dir's non-test files that set a
// field named state — an assignment or a composite literal's key — other
// than the statement e.state = e.derive().
func countStateSets(t *testing.T, dir string) int {
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		ast.Inspect(f, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "state" {
						continue
					}
					if len(x.Rhs) != len(x.Lhs) || types.ExprString(lhs) != "e.state" ||
						types.ExprString(x.Rhs[i]) != "e.derive()" {
						n++
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok && key.Name == "state" {
					n++
				}
			}
			return true
		})
	}
	return n
}

// countDecoders counts the exported functions named Decode* that dir's
// non-test files declare.
func countDecoders(t *testing.T, dir string) int {
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Decode") {
				n++
			}
		}
	}
	return n
}

// countRootCalls counts the calls, in the module's non-test files, of a
// method named Root with span.Recorder.Root's four arguments.
func countRootCalls(t *testing.T) int {
	n := 0
	for _, f := range moduleFiles(t, 0) {
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok && len(call.Args) == 4 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Root" {
					n++
				}
			}
			return true
		})
	}
	return n
}

// countReadAtAdapters counts the methods, in the module's non-test files,
// named ReadAt with vfs.File's old (p *sim.Proc, off, n) shape: three
// parameters, the first a *sim.Proc.
func countReadAtAdapters(t *testing.T) int {
	n := 0
	for _, f := range moduleFiles(t, 0) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "ReadAt" || fn.Type.Params.NumFields() != 3 {
				continue
			}
			if star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Proc" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sim" {
						n++
					}
				}
			}
		}
	}
	return n
}

// escapingMessage matches the compiler's report of a proto composite
// literal that leaves its frame.
var escapingMessage = regexp.MustCompile(`&proto\.(\w+)\{.*\} escapes to heap`)

// countEscapingMessages counts, in the escape analysis of the packages a
// round trip runs through, the proto messages allocated on the heap.
func countEscapingMessages(t *testing.T) int {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run the escape analysis")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", "./internal/server", "./internal/client",
		"./internal/rpc", "./internal/view", "./internal/cluster").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	n := 0
	for _, m := range escapingMessage.FindAllStringSubmatch(string(out), -1) {
		if m[1] != "StatusError" {
			n++
		}
	}
	return n
}

// countConstructorsWithoutOneCaller counts the exported New* functions of
// internal/server and internal/client that are not called from exactly
// one place in the module's non-test files outside bench/, and logs them.
func countConstructorsWithoutOneCaller(t *testing.T) int {
	calls := map[string]int{}
	for _, pkg := range []string{"server", "client"} {
		for _, f := range parseDir(t, "internal/"+pkg, 0) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "New") {
					calls[pkg+"."+fn.Name.Name] = 0
				}
			}
		}
	}
	for _, f := range moduleFiles(t, 0, "bench") {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := fn.X.(*ast.Ident); ok {
					name = pkg.Name + "." + fn.Sel.Name
				}
			case *ast.Ident: // a call from inside the package
				name = f.Name.Name + "." + fn.Name
			}
			if _, ok := calls[name]; ok {
				calls[name]++
			}
			return true
		})
	}
	n := 0
	for name, c := range calls {
		if c != 1 {
			t.Logf("%s has %d non-test callers outside bench/, want 1", name, c)
			n++
		}
	}
	return n
}

// countImporters counts the module's non-test files that import path.
func countImporters(t *testing.T, path string) int {
	n := 0
	for _, f := range moduleFiles(t, parser.ImportsOnly) {
		for _, spec := range f.Imports {
			if p, _ := strconv.Unquote(spec.Path.Value); p == path {
				n++
			}
		}
	}
	return n
}

// countFuncs counts the functions named any of names that dir's non-test
// files declare.
func countFuncs(t *testing.T, dir string, names ...string) int {
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && slices.Contains(names, fn.Name.Name) {
				n++
			}
		}
	}
	return n
}

// countMethods counts the methods named name that dir's non-test files
// declare on any of the receiver types recvs, or on any type when recvs
// is empty.
func countMethods(t *testing.T, dir, name string, recvs ...string) int {
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != name {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); len(recvs) == 0 || ok && slices.Contains(recvs, id.Name) {
				n++
			}
		}
	}
	return n
}

// countTypes counts the types named any of names that dir's non-test
// files declare.
func countTypes(t *testing.T, dir string, names ...string) int {
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		ast.Inspect(f, func(node ast.Node) bool {
			if ts, ok := node.(*ast.TypeSpec); ok && slices.Contains(names, ts.Name.Name) {
				n++
			}
			return true
		})
	}
	return n
}

// moduleFiles parses every non-test Go file of the module outside the
// directories skip names.
func moduleFiles(t *testing.T, mode parser.Mode, skip ...string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && path != "." || slices.Contains(skip, path) {
			return filepath.SkipDir
		}
		if names, _ := filepath.Glob(filepath.Join(path, "*.go")); len(names) > 0 {
			files = append(files, parseDir(t, path, mode)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countFlags counts the flags the non-test files of dir define on the
// flag package's command line.
func countFlags(t *testing.T, dir string) int {
	define := regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|BoolFunc)(Var)?$`)
	n := 0
	for _, f := range parseDir(t, dir, 0) {
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && define.MatchString(sel.Sel.Name) {
						n++
					}
				}
			}
			return true
		})
	}
	return n
}

// imports returns the set of module packages that dir's non-test files
// import, directly or through other module packages.
func imports(t *testing.T, dir string) map[string]bool {
	const module = "spritelynfs/"
	seen := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		for _, f := range parseDir(t, dir, parser.ImportsOnly) {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if strings.HasPrefix(path, module) && !seen[path] {
					seen[path] = true
					walk(strings.TrimPrefix(path, module))
				}
			}
		}
	}
	walk(dir)
	return seen
}

func parseDir(t *testing.T, dir string, mode parser.Mode) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range goFiles(t, dir) {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// goFiles lists the non-test Go files of dir that the default build compiles.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	var out []string
	for _, name := range names {
		// A file the default build leaves out (a build tag's, such
		// as rpc's frozencheck_on.go) is not part of the package.
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err == nil && ok && !strings.HasSuffix(name, "_test.go") {
			out = append(out, name)
		}
	}
	return out
}

// countJobs counts the job keys under a workflow's top-level jobs: map.
func countJobs(workflow string) int {
	_, jobs, _ := strings.Cut(workflow, "\njobs:\n")
	return len(regexp.MustCompile(`(?m)^  [\w-]+:\s*$`).FindAllString(jobs, -1))
}

// TestDocsNameLiveCode holds the documents to the code they describe:
// every backticked pkg.Name, pkg.Type.Member or Type.Member (a trailing
// "()" allowed) in the design, the readme, the experiment guide and the
// verify skill resolves by package and type. A Type.Member resolves when
// some package declares Type with that field or method, not when any
// package merely has a name Member. A first element that names neither
// a package nor a type is a variable, a file or a metric, and is not
// checked; an exported-looking one (capitalized) is, so a deleted type's
// members cannot hide there. A name that no longer resolves appears only
// on a row of docNameRows, with the reason it stays in the text.
func TestDocsNameLiveCode(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, ".")
	pkgs := map[string]*types.Package{}
	tests := map[string]bool{} // pkg.Name of every top-level declaration in a test file
	typesNamed := map[string][]*types.TypeName{}
	for i, pkg := range typeCheck(t, dirs...) {
		name := pkg.types.Name()
		if name == "spritelynfs" {
			name = "snfs" // as the examples import it
		}
		pkgs[name] = pkg.types
		scope := pkg.types.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				typesNamed[n] = append(typesNamed[n], tn)
			}
		}
		testFiles, _ := filepath.Glob(filepath.Join(dirs[i], "*_test.go"))
		for _, tf := range testFiles {
			f, err := parser.ParseFile(token.NewFileSet(), tf, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[name+"."+fn.Name.Name] = true
				}
			}
		}
	}
	// The benchmark's metric names (rpc.frame8k.ns_op) are not code.
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metrics := append(bench.EndToEnd, bench.PerLayer...)
	metric := func(ref string) bool {
		return slices.ContainsFunc(metrics, func(m struct{ Name string }) bool {
			return m.Name == ref || strings.HasPrefix(m.Name, ref+".")
		})
	}
	hasMember := func(tn *types.TypeName, member string) bool {
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member)
		return obj != nil
	}
	resolves := func(parts []string) (checked, ok bool) {
		if pkg := pkgs[parts[0]]; pkg != nil {
			obj := pkg.Scope().Lookup(parts[1])
			if len(parts) == 2 || obj == nil {
				return true, obj != nil || len(parts) == 2 && tests[parts[0]+"."+parts[1]]
			}
			tn, isType := obj.(*types.TypeName)
			return true, isType && hasMember(tn, parts[2])
		}
		tns := typesNamed[parts[0]]
		if len(parts) == 3 || (tns == nil && !unicode.IsUpper(rune(parts[0][0]))) {
			return false, false
		}
		return true, slices.ContainsFunc(tns, func(tn *types.TypeName) bool { return hasMember(tn, parts[1]) })
	}
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	span := regexp.MustCompile("`([^`]+)`")
	name := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}(\(\))?$`)
	file := regexp.MustCompile(`\.(go|md|json|jsonl|txt|csv|yml|mod|prof|golden|log)$`)
	dead := map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(text), ""), -1) {
			if !name.MatchString(m[1]) || file.MatchString(m[1]) || metric(m[1]) {
				continue
			}
			ref := strings.TrimSuffix(m[1], "()")
			if checked, ok := resolves(strings.Split(ref, ".")); checked && !ok {
				dead[ref] = true
			}
		}
	}
	rows := map[string]bool{}
	for _, r := range docNameRows {
		if r.reason == "" {
			t.Errorf("%s: allowlist row without a reason", r.name)
		}
		if !dead[r.name] {
			t.Errorf("%s: allowlist row for a name the documents do not hold dead", r.name)
		}
		rows[r.name] = true
	}
	for _, ref := range slices.Sorted(maps.Keys(dead)) {
		if !rows[ref] {
			t.Errorf("`%s` names no code: rename it in the documents, or give it a row in docNameRows", ref)
		}
	}
}

// docNameRows lists the backticked names in the documents that resolve to
// no code, one row per name, each with the reason the text keeps it.
var docNameRows = []struct{ name, reason string }{
	{"Signal.WaitTimeout", "DESIGN: a row of the allocation ledger, the method it removed"},
	{"sim.NewSignal", "DESIGN: a row of the allocation ledger, the call it removed"},
	{"sim.Task", "DESIGN: the op-ID wrapper the kernel's callbacks replaced"},
	{"inode.held", "DESIGN: the held read view frozen pages replaced"},
	{"client.fetchBlock", "DESIGN and the verify skill: a read-miss copy the profiles measured before it went"},
	{"client.assembleRead", "the verify skill: a read-path copy the profiles measured before it went"},
	{"inode.resize", "the verify skill: the store's growth the profiles measured before pages"},
	{"vfs.SplitPath", "the verify skill: the path split the profiles measured before walks scanned in place"},
}

// TestMapRangesAreOrdered holds the determinism contract — every output
// a function of the seed — at its most common leak: Go randomizes map
// iteration order. Every range over a map in the non-test code of
// internal/ either collects into slices that it sorts before acting, or
// has a row in mapRangeRows saying why its order cannot reach an output.
// Rows are counted per function, so a row whose loop is gone fails too.
func TestMapRangesAreOrdered(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	unordered := map[string]int{}
	for _, pkg := range typeCheck(t, dirs...) {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := pkg.types.Name() + "." + funcName(fn)
				ast.Inspect(fn.Body, func(node ast.Node) bool {
					var list []ast.Stmt
					switch x := node.(type) {
					case *ast.BlockStmt:
						list = x.List
					case *ast.CaseClause:
						list = x.Body
					case *ast.CommClause:
						list = x.Body
					}
					for i, st := range list {
						if ls, ok := st.(*ast.LabeledStmt); ok {
							st = ls.Stmt
						}
						rs, ok := st.(*ast.RangeStmt)
						if !ok {
							continue
						}
						if _, isMap := pkg.info.TypeOf(rs.X).Underlying().(*types.Map); isMap && !sortedAfter(rs, list[i+1:]) {
							unordered[name]++
						}
					}
					return true
				})
			}
		}
	}
	rows := map[string]int{}
	for _, r := range mapRangeRows {
		if r.reason == "" {
			t.Errorf("%s: allowlist row without a reason", r.fn)
		}
		rows[r.fn]++
	}
	for fn, n := range unordered {
		if rows[fn] != n {
			t.Errorf("%s: %d map range(s) neither sorted nor listed (%d row(s) in mapRangeRows)", fn, n, rows[fn])
		}
	}
	for fn, n := range rows {
		if unordered[fn] == 0 {
			t.Errorf("%s: %d allowlist row(s) for no unsorted map range", fn, n)
		}
	}
}

// mapRangeRows lists the map ranges whose order reaches no output, one row
// per loop.
var mapRangeRows = []struct{ fn, reason string }{
	{"audit.deriveState", "sums the writers; the client it keeps is read only when it is the only one"},
	{"audit.(*Auditor).ResetLedger", "filters each block's history on its own"},
	{"client.(*Base).Attach", "a gauge: sums the unstable blocks of every file"},
	{"core.(*Table).Snapshot", "copies every entry, then sorts the copies by (stamp, handle), a total order"},
	{"core.(*Table).StateCount", "counts"},
	{"core.(*Table).oldest", "keeps the n least by (stamp, handle), a total order"},
	{"localfs.(*Store).TotalBytes", "sums"},
	{"metrics.(*Registry).Snapshot", "copies the gauge funcs into a map"},
	{"metrics.(*Registry).Snapshot", "copies the histograms into a map"},
	{"metrics.(*Registry).Snapshot", "calls every gauge func, each into its own key"},
	{"metrics.(*Registry).helpTexts", "copies into a map"},
	{"server.(*rfsTable).get", "takes the least stamp, unique: every open stamps its entry from one counter"},
	{"tsdb.varsDoc", "copies into a map"},
}

// funcName names a function declaration as pkg.Func or pkg.(*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}

// sortedAfter reports whether rs only collects — every statement of its
// body appends to a slice, perhaps under an if — and a later statement of
// its block sorts every slice it appended to.
func sortedAfter(rs *ast.RangeStmt, rest []ast.Stmt) bool {
	targets := map[string]bool{}
	var collects func(list []ast.Stmt) bool
	collects = func(list []ast.Stmt) bool {
		for _, st := range list {
			switch x := st.(type) {
			case *ast.AssignStmt:
				call, ok := x.Rhs[0].(*ast.CallExpr)
				if len(x.Lhs) != 1 || !ok || types.ExprString(call.Fun) != "append" ||
					types.ExprString(call.Args[0]) != types.ExprString(x.Lhs[0]) {
					return false
				}
				targets[types.ExprString(x.Lhs[0])] = true
			case *ast.IfStmt:
				if x.Init != nil || x.Else != nil || !collects(x.Body.List) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !collects(rs.Body.List) || len(targets) == 0 {
		return false
	}
	for _, st := range rest {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fun := types.ExprString(call.Fun)
		if strings.HasPrefix(fun, "sort.") || strings.HasPrefix(strings.ToLower(fun[strings.LastIndex(fun, ".")+1:]), "sort") {
			delete(targets, types.ExprString(call.Args[0])) // sort.Slice, slices.SortFunc, sortAssignments, …
		}
	}
	return len(targets) == 0
}

// typedPackage is one package of internal/, parsed and type-checked.
type typedPackage struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// typeCheck parses and type-checks the packages in dirs (non-test
// files), importing what they import from the build cache's export data:
// one go list -export, and no package is checked from source twice.
func typeCheck(t *testing.T, dirs ...string) []typedPackage {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to list export data")
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, dir := range dirs {
		args = append(args, "./"+filepath.ToSlash(dir))
	}
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	var pkgs []typedPackage
	for _, dir := range dirs {
		var files []*ast.File
		for _, name := range goFiles(t, dir) {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check("spritelynfs/"+filepath.ToSlash(dir), fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, typedPackage{types: pkg, info: info, files: files})
	}
	return pkgs
}
