package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// Model-based checking: a random sequence of file operations is applied
// through the protocol stack by two client hosts AND to an in-memory
// reference model. The driver serializes operations (each completes
// before the next is issued), so with correct caching and consistency —
// on any protocol, including the delayed-write SNFS — every read must
// return exactly what the model says, no matter which client performs
// it, how the caches interleave, or when the update daemon fires.
//
// This is the sequential-write-sharing guarantee: NFS's open-time check
// provides it (the paper notes sequential consistency holds), SNFS's
// callbacks provide it, and RFS's invalidations provide it. A bug in
// version validation, callback delivery, delayed-write flushing, or
// cache invalidation shows up as a mismatch.

type modelFS struct {
	files map[string][]byte
}

func newModelFS() *modelFS { return &modelFS{files: make(map[string][]byte)} }

func (m *modelFS) write(name string, off int, data []byte) {
	f := m.files[name]
	end := off + len(data)
	if end > len(f) {
		g := make([]byte, end)
		copy(g, f)
		f = g
	}
	copy(f[off:end], data)
	m.files[name] = f
}

func (m *modelFS) read(name string, off, n int) []byte {
	f, ok := m.files[name]
	if !ok || off >= len(f) {
		return nil
	}
	end := off + n
	if end > len(f) {
		end = len(f)
	}
	return f[off:end]
}

// runModelCheck drives steps random operations through two hosts of
// protocol pr. nameCache arms the §7 name-cache extension on both sides
// (SNFS only), so the same namespace churn also exercises lease upkeep;
// armed arms spans on both hosts, so every vfs.FS and vfs.File method
// roots its span as it carries the traffic, and on SNFS mounts both
// through the auditor's wrapper, a second judge.
func runModelCheck(t *testing.T, pr Proto, seed int64, steps int, nameCache, armed bool) {
	t.Helper()
	pm := fastParams()
	pm.SNFS.UpdateInterval = 5 * sim.Second // exercise the update daemon
	pm.SNFS.NameCache = nameCache
	pm.Audit, pm.Spans = armed, armed
	w := Build(pr, true, pm)

	var namespaces []*vfs.Namespace
	namespaces = append(namespaces, w.NS)
	switch pr {
	case NFS:
		_, ns := w.AddNFSClient("second", pm.NFS)
		namespaces = append(namespaces, ns)
	case SNFS:
		_, ns := w.AddSNFSClient("second", pm.SNFS)
		namespaces = append(namespaces, ns)
	case RFS:
		_, ns := w.AddRFSClient("second")
		namespaces = append(namespaces, ns)
	}

	model := newModelFS()
	dirs := map[string]bool{}
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c", "d"}

	err := w.Run(func(p *sim.Proc) error {
		for step := 0; step < steps; step++ {
			ns := namespaces[rng.Intn(len(namespaces))]
			name := names[rng.Intn(len(names))]
			path := "/data/" + name
			_, exists := model.files[name]
			switch rng.Intn(16) {
			case 0, 1, 2: // write (create or overwrite a range)
				size := 1 + rng.Intn(20000)
				off := 0
				if exists && rng.Intn(2) == 0 {
					off = rng.Intn(len(model.files[name]) + 1)
				}
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(step + i)
				}
				flags := vfs.WriteOnly
				if !exists {
					flags |= vfs.Create
				}
				f, err := ns.Open(p, path, flags, 0o644)
				if err != nil {
					return fmt.Errorf("step %d open-write %s: %w", step, path, err)
				}
				if _, err := f.WriteAt(p, int64(off), data); err != nil {
					return fmt.Errorf("step %d write %s: %w", step, path, err)
				}
				if step%3 == 0 {
					if err := f.Sync(p); err != nil {
						return fmt.Errorf("step %d sync %s: %w", step, path, err)
					}
				}
				if err := f.Close(p); err != nil {
					return fmt.Errorf("step %d close %s: %w", step, path, err)
				}
				model.write(name, off, data)
			case 3: // truncating re-create
				f, err := ns.Open(p, path, vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
				if err != nil {
					return fmt.Errorf("step %d create %s: %w", step, path, err)
				}
				if err := f.Close(p); err != nil {
					return err
				}
				model.files[name] = nil
			case 4: // remove
				if exists {
					if err := ns.Remove(p, path); err != nil {
						return fmt.Errorf("step %d remove %s: %w", step, path, err)
					}
					delete(model.files, name)
				}
			case 5: // idle (lets daemons run)
				p.Sleep(sim.Duration(rng.Intn(8)) * sim.Second)
			case 6: // mkdir, or rmdir if it is there (made by either host)
				dir := "/data/dir" + name
				if dirs[dir] {
					if err := ns.Rmdir(p, dir); err != nil {
						return fmt.Errorf("step %d rmdir %s: %w", step, dir, err)
					}
				} else if err := ns.Mkdir(p, dir, 0o755); err != nil {
					return fmt.Errorf("step %d mkdir %s: %w", step, dir, err)
				}
				dirs[dir] = !dirs[dir]
			case 7: // rename, replacing whatever the new name held
				to := names[rng.Intn(len(names))]
				if exists && to != name {
					if err := ns.Rename(p, path, "/data/"+to); err != nil {
						return fmt.Errorf("step %d rename %s -> %s: %w", step, path, to, err)
					}
					model.files[to] = model.files[name]
					delete(model.files, name)
				}
			case 8: // link, then remove the old name: the inode lives on
				// (nlink > 1), so its cache and delayed writes must too
				to := names[rng.Intn(len(names))]
				if _, taken := model.files[to]; exists && !taken {
					if err := ns.Link(p, path, "/data/"+to); err != nil {
						return fmt.Errorf("step %d link %s -> %s: %w", step, path, to, err)
					}
					if err := ns.Remove(p, path); err != nil {
						return fmt.Errorf("step %d remove linked %s: %w", step, path, err)
					}
					model.files[to] = model.files[name]
					delete(model.files, name)
				}
			case 9: // truncating open of an existing file, then a shorter
				// write: either host must next see only the short file
				if exists {
					data := make([]byte, 1+rng.Intn(len(model.files[name])+1)/2)
					for i := range data {
						data[i] = byte(step ^ i)
					}
					f, err := ns.Open(p, path, vfs.WriteOnly|vfs.Truncate, 0)
					if err != nil {
						return fmt.Errorf("step %d open-truncate %s: %w", step, path, err)
					}
					if _, err := f.WriteAt(p, 0, data); err != nil {
						return fmt.Errorf("step %d write truncated %s: %w", step, path, err)
					}
					if err := f.Close(p); err != nil {
						return fmt.Errorf("step %d close truncated %s: %w", step, path, err)
					}
					model.files[name] = data
				}
			case 10: // symlink made by one host, read through the other
				link := "/data/ln" + name
				if err := ns.Symlink(p, name, link); err != nil {
					return fmt.Errorf("step %d symlink %s: %w", step, link, err)
				}
				other := namespaces[(step+1)%len(namespaces)]
				if got, err := other.Readlink(p, link); err != nil || got != name {
					return fmt.Errorf("step %d readlink %s = %q, %v; want %q", step, link, got, err, name)
				}
				if err := ns.Remove(p, link); err != nil {
					return fmt.Errorf("step %d remove %s: %w", step, link, err)
				}
			default: // read a range and check against the model
				f, err := ns.Open(p, path, vfs.ReadOnly, 0)
				if !exists {
					if err == nil {
						f.Close(p)
						return fmt.Errorf("step %d: opened absent file %s", step, path)
					}
					continue
				}
				if err != nil {
					return fmt.Errorf("step %d open-read %s: %w", step, path, err)
				}
				if fa, err := f.Attr(p); err != nil || int(fa.Size) != len(model.files[name]) {
					f.Close(p)
					return fmt.Errorf("step %d attr %s: size %d, %v; want %d", step, path, fa.Size, err, len(model.files[name]))
				}
				off := rng.Intn(len(model.files[name]) + 1)
				n := 1 + rng.Intn(20000)
				got, err := f.ReadAt(p, int64(off), n)
				if err != nil {
					f.Close(p)
					return fmt.Errorf("step %d read %s: %w", step, path, err)
				}
				if err := f.Close(p); err != nil {
					return err
				}
				want := model.read(name, off, n)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("step %d: %s[%d:+%d] mismatch: got %d bytes, want %d (first diff at %d)",
						step, path, off, n, len(got), len(want), firstDiff(got, want))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", pr, seed, err)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestModelCheckSNFS(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		runModelCheck(t, SNFS, seed, 200, false, false)
	}
}

func TestModelCheckNFS(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		runModelCheck(t, NFS, seed, 150, false, false)
	}
}

func TestModelCheckRFS(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		runModelCheck(t, RFS, seed, 150, false, false)
	}
}

func TestModelCheckLocal(t *testing.T) {
	runModelCheck(t, Local, 1, 200, false, false)
}

// TestModelCheckSNFSWithNameCache exercises the §7 extension under the
// random workload (namespace churn through two clients).
func TestModelCheckSNFSWithNameCache(t *testing.T) {
	for seed := int64(10); seed <= 17; seed++ {
		runModelCheck(t, SNFS, seed, 200, true, false)
	}
}

// TestModelCheckArmed repeats the check on every protocol with spans
// armed and, on SNFS, the auditor's wrapper in the mounts.
func TestModelCheckArmed(t *testing.T) {
	for _, pr := range []Proto{NFS, SNFS, RFS, Local} {
		for seed := int64(20); seed <= 22; seed++ {
			runModelCheck(t, pr, seed, 200, false, true)
		}
	}
}
