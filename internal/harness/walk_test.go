package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// pathStatus names err's outcome alike on every file system: the local
// mount fails with localfs errors, a client with protocol statuses.
func pathStatus(err error) string {
	var se *proto.StatusError
	switch {
	case err == nil:
		return "OK"
	case errors.Is(err, vfs.ErrLoop):
		return "ELOOP"
	case errors.As(err, &se):
		return se.Status.String()
	}
	return proto.StatusFromErr(err).String()
}

// TestPathTable runs one table of paths through every file system, the
// compound walk and the name cache included, and requires the same
// outcome of each: links in the parent chain, relative and absolute, are
// followed by every operation; a link as the last component is followed
// by Stat, Open and Readdir and named by Readlink; a chain of
// vfs.MaxLinks links resolves and one more fails, as a cycle does.
func TestPathTable(t *testing.T) {
	// c1 → c2 → … → c9 → d: c2 is a chain of vfs.MaxLinks links, c1 one
	// more.
	links := [][2]string{
		{"/data/rl", "d"}, {"/data/al", "/data/d"}, {"/data/fl", "d/f"},
		{"/data/d/self", "."}, {"/data/d/sub/up", ".."},
		{"/data/cyc1", "cyc2"}, {"/data/cyc2", "cyc1"},
	}
	for i := 1; i <= vfs.MaxLinks; i++ {
		links = append(links, [2]string{fmt.Sprintf("/data/c%d", i), fmt.Sprintf("c%d", i+1)})
	}
	links = append(links, [2]string{fmt.Sprintf("/data/c%d", vfs.MaxLinks+1), "d"})

	// Each row is a path and what Stat makes of it.
	rows := []struct{ path, stat string }{
		{"/data/d/f", "OK reg 5"},
		{"/data/rl/f", "OK reg 5"}, // a relative link in the parent chain
		{"/data/al/f", "OK reg 5"}, // an absolute one
		{"/data/al/sub", "OK dir"}, //
		{"/data/rl", "OK dir"},     // a link as the last component
		{"/data/fl", "OK reg 5"},   //
		{"/data/d/self", "OK dir"}, // a link to its own directory
		{"/data/d/self/self/f", "OK reg 5"},
		{"/data/d/sub/up/f", "OK reg 5"}, // a link to ".."
		{"/data/c2", "OK dir"},           // vfs.MaxLinks links
		{"/data/c2/f", "OK reg 5"},       //
		{"/data/c1", "ELOOP"},            // one more
		{"/data/c1/f", "ELOOP"},          //
		{"/data/cyc1", "ELOOP"},          // a cycle
		{"/data/cyc1/f", "ELOOP"},        //
		{"/data/./d//f", "OK reg 5"},     // "." and empty components
		{"//data/d/./", "OK dir"},        //
		{"/data/d/sub/../f", "OK reg 5"}, // ".." is a name
		{"/data/d/f/x", "ENOTDIR"},       // a file in the parent chain
		{"/data/fl/x", "ENOTDIR"},        //
		{"/data/no/f", "ENOENT"},         //
	}

	// run makes the tree on a fresh world of pm and returns one line per
	// row and operation.
	run := func(pr Proto, pm Params) []string {
		var out []string
		w := Build(pr, true, pm)
		err := w.Run(func(p *sim.Proc) error {
			ns := w.NS
			for _, d := range []string{"/data/d", "/data/d/sub"} {
				if err := ns.Mkdir(p, d, 0o755); err != nil {
					return err
				}
			}
			f, err := ns.Open(p, "/data/d/f", vfs.WriteOnly|vfs.Create, 0o644)
			if err == nil {
				_, err = f.WriteAt(p, 0, []byte("hello"))
			}
			if err == nil {
				err = f.Close(p)
			}
			if err != nil {
				return err
			}
			for _, l := range links {
				if err := ns.Symlink(p, l[1], l[0]); err != nil {
					return err
				}
			}
			for _, r := range rows {
				line := func(op string, err error, what ...any) {
					out = append(out, fmt.Sprintf("%s %s: %s %s", op, r.path, pathStatus(err), fmt.Sprint(what...)))
				}
				a, err := ns.Stat(p, r.path)
				switch {
				case err != nil:
					line("stat", err)
				case a.Type == uint32(localfs.TypeRegular):
					line("stat", err, "reg ", a.Size)
				case a.Type == uint32(localfs.TypeDirectory):
					line("stat", err, "dir")
				default:
					line("stat", err, "type ", a.Type)
				}
				f, err := ns.Open(p, r.path, vfs.ReadOnly, 0)
				if err == nil {
					err = f.Close(p)
				}
				line("open", err)
				ents, err := ns.Readdir(p, r.path)
				var names []string
				for _, e := range ents {
					names = append(names, e.Name)
				}
				slices.Sort(names)
				line("readdir", err, strings.Join(names, ","))
				target, err := ns.Readlink(p, r.path)
				line("readlink", err, target)
				// Through the row as a parent chain: a file created and
				// removed, a directory made and removed.
				f, err = ns.Open(p, r.path+"/new", vfs.WriteOnly|vfs.Create, 0o644)
				if err == nil {
					err = f.Close(p)
				}
				line("create", err)
				line("remove", ns.Remove(p, r.path+"/new"))
				line("mkdir", ns.Mkdir(p, r.path+"/newdir", 0o755))
				line("rmdir", ns.Rmdir(p, r.path+"/newdir"))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pr, err)
		}
		return out
	}

	local := run(Local, fastParams())
	for i, r := range rows {
		if got := strings.TrimSpace(strings.SplitN(local[i*8], ": ", 2)[1]); got != r.stat {
			t.Errorf("Local: stat %s = %s, want %s", r.path, got, r.stat)
		}
	}
	for _, fs := range []struct {
		name string
		pr   Proto
		arm  func(*Params)
	}{
		{"NFS", NFS, nil},
		{"SNFS", SNFS, nil},
		{"RFS", RFS, nil},
		{"NFS with the compound walk", NFS, func(pm *Params) { pm.AttrExtensions = true }},
		{"SNFS with the name cache", SNFS, func(pm *Params) { pm.SNFS.NameCache = true }},
	} {
		pm := fastParams()
		if fs.arm != nil {
			fs.arm(&pm)
		}
		got := run(fs.pr, pm)
		for i := range local {
			if got[i] != local[i] {
				t.Errorf("%s: %s; Local: %s", fs.name, got[i], local[i])
			}
		}
	}
}
