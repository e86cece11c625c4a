package spritelynfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spritelynfs/internal/client"
	"spritelynfs/internal/cluster"
	"spritelynfs/internal/harness"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/rpc"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
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
		{"cluster.Instruments fields", reflect.TypeOf(cluster.Instruments{}).NumField(), 4},
		// One server host, one client host: a protocol server or client
		// is assembled in one place (internal/cluster/host.go).
		{"server.New*/client.New* without exactly one non-test caller outside bench/", countConstructorsWithoutOneCaller(t), 0},
		{"snfsd flags", countFlags(t, "cmd/snfsd"), 13},
		// The protocol core stays free of the observability stack.
		{"internal/core importing internal/trace", b2i(imports(t, "internal/core")["spritelynfs/internal/trace"]), 0},
		{"ci.yml lines", strings.Count(string(ci), "\n"), 62},
		{"ci.yml jobs", countJobs(string(ci)), 2},
		// One read path: Media.ReadAt reads, freezes and charges together.
		{"exported localfs.Media.ChargeRead", b2i(chargeRead), 0},
		// One description per message: its XDR method both encodes and
		// decodes it. The named decoders left are the benchmark's.
		{"internal/proto non-test lines", countLines(t, "internal/proto"), 1425},
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
		{"ReadAt(p, off, n) adapter methods", countReadAtAdapters(t), 6},
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
	} {
		if c.got > c.max {
			t.Errorf("%s: %d, above its ceiling of %d", c.what, c.got, c.max)
		}
	}
}

// countLines counts the lines of dir's non-test Go files.
func countLines(t *testing.T, dir string) int { return countText(t, dir, "\n") }

// countText counts the occurrences of s in dir's non-test Go files.
func countText(t *testing.T, dir, s string) int {
	n := 0
	for _, name := range goFiles(t, dir) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		n += strings.Count(string(data), s)
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

// goFiles lists dir's non-test Go files.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	var out []string
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
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
