package proto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"spritelynfs/internal/localfs"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/xdr"
)

var statusType = reflect.TypeOf(Status(0))

// fill sets every field reachable from v to a distinct non-zero value,
// counting up from *n in field order, except Status fields, which get st.
// Each list gets two elements and each byte slice three bytes, so padding
// is on the wire too.
func fill(v reflect.Value, n *uint64, st Status) {
	if v.Type() == statusType {
		v.SetUint(uint64(st))
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(*n)
	case reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(*n), byte(*n >> 8), 0xa5})
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), n, st)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n, st)
		}
	default:
		panic("fill: " + v.Type().String())
	}
}

// full returns a value of m's type with every field set, and a status
// that puts every conditional part of the message on the wire.
func full(m Message) Message {
	st := OK
	if _, ok := m.(*ReplStreamReply); ok {
		st = ErrDemoted // the reply carries its map only then
	}
	v := zeroOf(m)
	var n uint64
	fill(reflect.ValueOf(v).Elem(), &n, st)
	return v
}

// TestEveryFieldRoundTrips: a value with every field set decodes back to
// itself. A symmetric codec cannot encode a field it does not decode, but
// it can forget one in both directions; this catches that.
func TestEveryFieldRoundTrips(t *testing.T) {
	for _, seed := range fuzzSeeds {
		in := full(seed)
		out := zeroOf(seed)
		if left, err := decodeInto(out, Marshal(in)); err != nil || left != 0 {
			t.Errorf("%s: %v, %d bytes left", typeName(seed), err, left)
			continue
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s: round trip lost a field:\n  in  %+v\n  out %+v", typeName(seed), in, out)
		}
	}
}

// TestWireImagesAreGolden: every fuzz seed and every fully set value
// encodes to the bytes in testdata/wire.golden, which were captured from
// the hand-written encoders the XDR methods replaced. The same bytes on
// the modelled link mean the same virtual time.
func TestWireImagesAreGolden(t *testing.T) {
	f, err := os.Open("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			golden[fields[0]+" "+fields[1]] = strings.Join(fields[2:], "") // empty for an empty message
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, seed := range fuzzSeeds {
		for kind, m := range map[string]Message{"seed": seed, "full": full(seed)} {
			key := typeName(seed) + " " + kind
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: no golden image", key)
				continue
			}
			delete(golden, key)
			if got := hex.EncodeToString(Marshal(m)); got != want {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want)
			}
		}
	}
	for key := range golden {
		t.Errorf("%s: golden image of no fuzz seed", key)
	}
}

// TestFuzzSeedsCoverEveryXDRType parses the package for XDR methods and
// fails on any receiver type fuzzSeeds lacks, so a new message is fuzzed,
// round-tripped and pinned by registration, not by remembering a list.
func TestFuzzSeedsCoverEveryXDRType(t *testing.T) {
	seeded := map[string]bool{}
	for _, m := range fuzzSeeds {
		if seeded[typeName(m)] {
			t.Errorf("%s: seeded twice", typeName(m))
		}
		seeded[typeName(m)] = true
	}
	methods := 0
	for _, file := range packageFiles(t) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "XDR" {
				continue
			}
			methods++
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if name := recv.(*ast.Ident).Name; !seeded[name] {
				t.Errorf("%s has an XDR method but no entry in fuzzSeeds", name)
			}
		}
	}
	if methods != len(fuzzSeeds) {
		t.Errorf("%d XDR methods, %d fuzz seeds", methods, len(fuzzSeeds))
	}
}

// TestEveryProcedureHasARow parses the package's constants and fails on a
// procedure with no row in its program's table, or a status with no name:
// operation counts, metric labels and results tables would show a number.
func TestEveryProcedureHasARow(t *testing.T) {
	programs := map[string]uint32{"Proc": ProgNFS, "CbProc": ProgCallback, "ViewProc": ProgView}
	procs, statuses := 0, 0
	for _, file := range packageFiles(t) {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				typ, _ := vs.Type.(*ast.Ident)
				for i, id := range vs.Names {
					prog, isProc := uint32(0), false
					for prefix, p := range programs {
						if strings.HasPrefix(id.Name, prefix) {
							prog, isProc = p, true
						}
					}
					isStatus := typ != nil && typ.Name == "Status"
					if !isProc && !isStatus {
						continue
					}
					var v uint64
					var err error
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if ok {
						v, err = strconv.ParseUint(lit.Value, 0, 32)
					}
					if !ok || err != nil {
						t.Errorf("%s: not a number literal", id.Name)
						continue
					}
					if isStatus {
						statuses++
						if _, ok := statusNames[Status(v)]; !ok {
							t.Errorf("status %s has no name", id.Name)
						}
						continue
					}
					procs++
					if _, ok := LookupProc(prog, uint32(v)); !ok {
						t.Errorf("procedure %s has no row", id.Name)
					}
				}
			}
		}
	}
	if procs == 0 || statuses == 0 {
		t.Errorf("found %d procedures and %d statuses", procs, statuses)
	}
}

// packageFiles parses the package's non-test files.
func packageFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs["proto"].Files
}

// TestSplitImageIsTheSameMessage: a ReadReply's data goes out as its
// image's tail, its XDR pad carried apart. For data on and around the
// alignment and page edges, and for a hole (the store's shared zero page),
// the tail is the data itself whenever the data is non-empty, the split
// image head‖tail‖pad is proto.Marshal's bytes, and it decodes to what the
// joined bytes decode to. A tail a byte short or a byte long fails the
// decoder with xdr.ErrShortBuffer and leaves no view past it.
func TestSplitImageIsTheSameMessage(t *testing.T) {
	st := localfs.NewStore(func() sim.Time { return 0 }, 4096)
	a, _ := st.Create(st.Root(), "hole", 0o644)
	st.Truncate(a.Ino, 8192)
	hole, _ := st.ReadAt(a.Ino, 0, 8192)
	cases := []struct {
		name string
		data []byte
	}{{"hole", hole}}
	for _, n := range []int{0, 1, 3, 4095, 4096, 4097, 8191, 8192} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		cases = append(cases, struct {
			name string
			data []byte
		}{fmt.Sprintf("%d bytes", n), data})
	}
	for _, c := range cases {
		m := &ReadReply{Status: OK, Attr: Fattr{Fileid: 42, Size: 8192}, Data: c.data}
		e := xdr.NewEncoder()
		m.XDR(e.Codec())
		head, tail := e.Image()
		if !bytes.Equal(xdr.Join(head, tail), Marshal(m)) || xdr.WireLen(head, tail) != len(Marshal(m)) {
			t.Errorf("%s: head‖tail‖pad differs from proto.Marshal", c.name)
		}
		if (len(c.data) > 0) != (tail != nil) || tail != nil && &tail[0] != &c.data[0] {
			t.Errorf("%s: a %d-byte tail; want the data itself whenever it is non-empty", c.name, len(tail))
		}
		var split, joined ReadReply
		if _, err := decodeSplit(&split, head, tail); err != nil {
			t.Errorf("%s: split decode: %v", c.name, err)
		}
		if _, err := decodeInto(&joined, Marshal(m)); err != nil || !reflect.DeepEqual(split, joined) || !bytes.Equal(split.Data, c.data) {
			t.Errorf("%s: the split image decodes to %d bytes of data, the joined one to %d (%v)", c.name, len(split.Data), len(joined.Data), err)
		}
		if tail == nil {
			continue
		}
		for _, bad := range [][]byte{tail[:len(tail)-1], append(tail[:len(tail):len(tail)], 0)} {
			var r ReadReply
			if _, err := decodeSplit(&r, head, bad); !errors.Is(err, xdr.ErrShortBuffer) || r.Data != nil {
				t.Errorf("%s: a %d-byte tail for a %d-byte item decodes %d bytes, err %v; want xdr.ErrShortBuffer and no data",
					c.name, len(bad), len(tail), len(r.Data), err)
			}
		}
	}
}
