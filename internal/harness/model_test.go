package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spritelynfs/internal/proto"
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
	dirs  map[string]bool
}

func newModelFS() *modelFS { return &modelFS{files: map[string][]byte{}, dirs: map[string]bool{}} }

func (m *modelFS) clone() *modelFS {
	c := newModelFS()
	for name, f := range m.files {
		c.files[name] = bytes.Clone(f)
	}
	for dir, ok := range m.dirs {
		c.dirs[dir] = ok
	}
	return c
}

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
	return bytes.Clone(f[off:end])
}

// A step is one operation of the model check, drawn from the model as it
// stands (drawStep): kind is the generator's draw (0-2 write, 3 truncating
// create, 4 remove, 5 idle, 6 mkdir or rmdir, 7 rename, 8 link, 9
// truncating rewrite, 10 symlink, 11-15 read; -1 a draw that does
// nothing), host the namespace that runs it, name the file it acts on.
type step struct {
	kind, i, host int
	name, to      string
	off, n        int
	data          []byte
	create        bool
	sleep         sim.Duration
}

// An outcome is what a step returned: whether it failed, and a read's
// size (as Attr has it) and bytes.
type outcome struct {
	failed bool
	size   int
	data   []byte
}

func (o outcome) equal(x outcome) bool {
	return o.failed == x.failed && o.size == x.size && bytes.Equal(o.data, x.data)
}

var modelNames = []string{"a", "b", "c", "d"}

// drawStep draws step i from rng against m, for hosts namespaces.
func drawStep(rng *rand.Rand, m *modelFS, i, hosts int) step {
	s := step{i: i, host: rng.Intn(hosts), name: modelNames[rng.Intn(len(modelNames))]}
	f, exists := m.files[s.name]
	s.kind = rng.Intn(16)
	switch s.kind {
	case 0, 1, 2: // write (create or overwrite a range)
		s.data = make([]byte, 1+rng.Intn(20000))
		if exists && rng.Intn(2) == 0 {
			s.off = rng.Intn(len(f) + 1)
		}
		for j := range s.data {
			s.data[j] = byte(i + j)
		}
		s.create = !exists
	case 4, 7, 8, 9: // remove, rename, link, truncating rewrite
		if s.kind == 7 || s.kind == 8 {
			s.to = modelNames[rng.Intn(len(modelNames))]
		}
		_, taken := m.files[s.to]
		if !exists || s.kind == 7 && s.to == s.name || s.kind == 8 && taken {
			s.kind = -1
		} else if s.kind == 9 {
			s.data = make([]byte, 1+rng.Intn(len(f)+1)/2)
			for j := range s.data {
				s.data[j] = byte(i ^ j)
			}
		}
	case 5: // idle (lets daemons run)
		s.sleep = sim.Duration(rng.Intn(8)) * sim.Second
	case 6: // mkdir, or rmdir if it is there (made by either host)
		s.create = !m.dirs["dir"+s.name]
	case 3, 10:
	default: // read a range; n is 0 for a file absent when drawn
		if exists {
			s.off = rng.Intn(len(f) + 1)
			s.n = 1 + rng.Intn(20000)
		}
	}
	return s
}

// drawScript draws steps steps of the model check from seed, for hosts
// namespaces.
func drawScript(seed int64, steps, hosts int) []step {
	rng, m := rand.New(rand.NewSource(seed)), newModelFS()
	script := make([]step, steps)
	for i := range script {
		script[i] = drawStep(rng, m, i, hosts)
		script[i].apply(m, 0, nil)
	}
	return script
}

// run performs s through nss, the hosts' namespaces, and keeps in call
// the syscall it is in: 0 the first (a write's or a read's open), 1 the
// write or the reads, 2 what follows them. Every write-type step closes
// what it opened, even after an error.
func (s step) run(p *sim.Proc, nss []*vfs.Namespace, call *int) (outcome, error) {
	ns, path := nss[s.host], "/data/"+s.name
	*call = 0
	switch s.kind {
	case 0, 1, 2, 3, 9:
		flags := vfs.WriteOnly
		if s.create || s.kind == 3 {
			flags |= vfs.Create
		}
		if s.kind == 3 || s.kind == 9 {
			flags |= vfs.Truncate
		}
		f, err := ns.Open(p, path, flags, 0o644)
		if err != nil {
			return outcome{failed: true}, err
		}
		if *call = 1; len(s.data) > 0 {
			_, err = f.WriteAt(p, int64(s.off), s.data)
		}
		if *call = 2; err == nil && s.kind < 3 && s.i%3 == 0 {
			err = f.Sync(p)
		}
		if cerr := f.Close(p); err == nil {
			err = cerr
		}
		return outcome{failed: err != nil}, err
	case 4:
		err := ns.Remove(p, path)
		return outcome{failed: err != nil}, err
	case 5:
		p.Sleep(s.sleep)
	case 6:
		dir := "/data/dir" + s.name
		if s.create {
			return outcome{}, ns.Mkdir(p, dir, 0o755)
		}
		return outcome{}, ns.Rmdir(p, dir)
	case 7:
		err := ns.Rename(p, path, "/data/"+s.to)
		return outcome{failed: err != nil}, err
	case 8: // link, then remove the old name: the inode lives on
		// (nlink > 1), so its cache and delayed writes must too
		err := ns.Link(p, path, "/data/"+s.to)
		if err == nil {
			err = ns.Remove(p, path)
		}
		return outcome{failed: err != nil}, err
	case 10: // symlink made by one host, read through the other
		link := "/data/ln" + s.name
		if err := ns.Symlink(p, s.name, link); err != nil {
			return outcome{}, err
		}
		if got, err := nss[(s.i+1)%len(nss)].Readlink(p, link); err != nil || got != s.name {
			return outcome{}, fmt.Errorf("readlink %s = %q, %v; want %q", link, got, err, s.name)
		}
		return outcome{}, ns.Remove(p, link)
	case -1:
	default:
		f, err := ns.Open(p, path, vfs.ReadOnly, 0)
		if err != nil {
			return outcome{failed: true}, err
		}
		var o outcome
		if *call = 1; s.n > 0 {
			var fa proto.Fattr
			if fa, err = f.Attr(p); err == nil {
				o.size = int(fa.Size)
				o.data, err = f.ReadAt(p, int64(s.off), s.n)
			}
		}
		*call = 2
		f.Close(p)
		if err != nil {
			return outcome{failed: true}, err
		}
		return o, nil
	}
	return outcome{}, nil
}

// modelBlock is the hosts' cache block (Params.TransferSize).
const modelBlock = 8 << 10

// apply performs s on m and returns the outcome the model says it has.
// mid, if not nil, runs after the first at syscalls of s (a write or a
// read opens, then writes or reads; every other step is one syscall), so
// m may no longer be the model s was drawn from: a file s needs that is
// gone fails it, a create finds one there and truncates it, as the
// server's CREATE does, and a file removed after its open takes no write.
func (s step) apply(m *modelFS, at int, mid func(*modelFS)) outcome {
	defer func() {
		if mid != nil {
			mid(m)
		}
	}()
	if at == 0 && mid != nil {
		mid(m)
		mid = nil
	}
	f, exists := m.files[s.name]
	switch s.kind {
	case 0, 1, 2, 4, 7, 8, 9, 11, 12, 13, 14, 15:
		if !exists && !s.create {
			return outcome{failed: true}
		}
	}
	switch s.kind {
	case 0, 1, 2, 9:
		if s.create || s.kind == 9 {
			m.files[s.name] = nil
		}
		// A write is atomic a block at a time: mid may run after any
		// of its blocks (at 1 + the blocks written).
		for cur, j := s.off, 1; ; j++ {
			if at == j && mid != nil {
				mid(m)
				mid = nil
			}
			next := min((cur/modelBlock+1)*modelBlock, s.off+len(s.data))
			if cur >= next {
				break
			}
			if _, ok := m.files[s.name]; ok {
				m.write(s.name, cur, s.data[cur-s.off:next-s.off])
			}
			cur = next
		}
	case 3:
		m.files[s.name] = nil
	case 4:
		delete(m.files, s.name)
	case 6:
		m.dirs["dir"+s.name] = s.create
	case 7, 8:
		if _, taken := m.files[s.to]; s.kind == 8 && taken {
			return outcome{failed: true}
		}
		delete(m.files, s.name)
		m.files[s.to] = f
	case 5, 10, -1:
	default:
		if at == 1 && mid != nil {
			mid(m)
			mid = nil
		}
		if f, ok := m.files[s.name]; !ok {
			return outcome{failed: true, size: -1} // removed since its open
		} else if s.n > 0 {
			return outcome{size: len(f), data: m.read(s.name, s.off, s.n)}
		}
	}
	return outcome{}
}

// runModelCheck drives steps random operations through two hosts of
// protocol pr. nameCache arms the §7 name-cache extension on both sides
// (SNFS only), so the same namespace churn also exercises lease upkeep;
// armed arms spans on both hosts, so every vfs.FS and vfs.File method
// roots its span as it carries the traffic, and on SNFS mounts both
// through the auditor's wrapper, a second judge. Its driver issues one
// step at a time, so no syscall of it overlaps another: overlap is
// TestInterferenceAtEveryPark's to test, on the same steps.
func runModelCheck(t *testing.T, pr Proto, seed int64, steps int, nameCache, armed bool) {
	t.Helper()
	pm := fastParams()
	pm.SNFS.UpdateInterval = 5 * sim.Second // exercise the update daemon
	pm.SNFS.NameCache = nameCache
	pm.Audit, pm.Spans = armed, armed
	hosts := 2
	if pr == Local {
		hosts = 1
	}
	if _, err := parkWorld(pr, pm, drawScript(seed, steps, hosts), 0, nil, nil); err != nil {
		t.Fatalf("%s seed %d: %v", pr, seed, err)
	}
}

// buildModelWorld builds a world of pr with a second client host: the
// model check's hosts, whose namespaces it returns.
func buildModelWorld(pr Proto, pm Params) (*World, []*vfs.Namespace) {
	w := Build(pr, true, pm)
	nss := []*vfs.Namespace{w.NS}
	switch pr {
	case NFS:
		_, ns := w.AddNFSClient("second", pm.NFS)
		nss = append(nss, ns)
	case SNFS:
		_, ns := w.AddSNFSClient("second", pm.SNFS)
		nss = append(nss, ns)
	case RFS:
		_, ns := w.AddRFSClient("second")
		nss = append(nss, ns)
	}
	return w, nss
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
