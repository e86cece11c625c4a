package harness

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"spritelynfs/internal/cluster"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// Interference at every park: the consistency guarantee (§4) must hold
// when something acts while a syscall is parked on an RPC. The sweep runs
// a model-check script once to count its driver's parks, N, then world k
// for every k ≤ N and every interferer of the menu: as the driver resumes
// from its k-th park (sim.Kernel.OnPark), the interferer acts on the
// parked step's file, and the driver goes on once it has returned, or
// after holdBound if it waits on the driver. The judge: the step's outcome
// and the files every host reads after it by a close and a reopen equal a
// serial order of the parked syscall and the interferer in modelFS; SNFS
// runs under the strict auditor too. CHESS's idea (Musuvathi et al., OSDI
// 2008) at one deviation.

// An interferer is a model-check step on the parked step's file, run by
// the other host or (same) by a second process of the parked one; or fn,
// sync(2) or the update pass, which the model does not see.
type interferer struct {
	name string
	same bool
	s    step
	fn   func(p *sim.Proc, h *cluster.ClientHost)
}

// patch writes block 1 whole, which a read-ahead may be fetching.
var patch = step{i: 1, off: modelBlock, data: bytes.Repeat([]byte{'P'}, modelBlock)}

const holdBound = sim.Second

// parkMenu ends with update@same, the update pass, which only SNFS has.
var parkMenu = []interferer{
	{"read@other", false, step{kind: 11, n: 1 << 16}, nil},
	{"write@other", false, patch, nil},
	{"remove@other", false, step{kind: 4}, nil},
	{"recreate@other", false, step{kind: 3}, nil},
	{"trunc@other", false, step{kind: 9}, nil},
	{"write@same", true, patch, nil},
	{"remove@same", true, step{kind: 4}, nil},
	{"sync@same", true, step{kind: -1}, func(p *sim.Proc, h *cluster.ClientHost) { h.NS.SyncAll(p) }},
	{"update@same", true, step{kind: -1}, func(p *sim.Proc, h *cluster.ClientHost) { h.SNFS.SyncPass(p) }},
}

// parkWorld runs script on a fresh world of pr, in acting at the driver's
// k-th park (k 0: nowhere) and check (if not nil) after the parked step,
// and returns the step of each park of the driver and what was found.
func parkWorld(pr Proto, pm Params, script []step, k int, in *interferer, check func(w *World, got outcome) error) ([]int, error) {
	w, nss := buildModelWorld(pr, pm)
	m := newModelFS()
	var driver *sim.Proc
	var stepOf []int
	var acting sim.WaitGroup
	var is step // in's step, on the parked step's file
	cur, parked, call, parkedCall := -1, -1, 0, 0
	w.K.OnPark(func(p *sim.Proc) {
		if p != driver || cur < 0 {
			return
		}
		if stepOf = append(stepOf, cur); len(stepOf) != k {
			return
		}
		parked, parkedCall, cur = cur, call, -1
		is = in.s
		if is.name, is.host = script[parked].name, script[parked].host; !in.same {
			is.host = 1 - is.host
		}
		var held sim.Signal
		acting.Add(1)
		w.K.Go("interferer", func(ip *sim.Proc) {
			defer acting.Done()
			if in.fn != nil {
				in.fn(ip, w.clients[is.host])
			} else {
				is.run(ip, nss, new(int))
			}
			held.Fire(nil)
		})
		w.K.After(holdBound, func() { held.Fire(nil) })
		held.Wait(p)
	})
	finished := false
	err := w.Run(func(p *sim.Proc) error {
		defer func() { finished = true }()
		driver = p
		for i, s := range script {
			cur = i
			got, err := s.run(p, nss, &call)
			if cur = -1; parked == i {
				acting.Wait(p)
				if check != nil {
					if err := check(w, got); err != nil {
						return err
					}
				}
				return judge(p, nss, pr == NFS, s, parkedCall, m, is, got)
			}
			if want := s.apply(m, 0, nil); (err != nil) != want.failed || !got.equal(want) {
				return fmt.Errorf("step %d: %s got %v (%v), size %d, %d bytes; want %v, %d, %d (first diff at %d)", i, s.name,
					got.failed, err, got.size, len(got.data), want.failed, want.size, len(want.data), firstDiff(got.data, want.data))
			}
		}
		return nil
	})
	if err == nil && !finished {
		err = fmt.Errorf("the driver never finished")
	}
	return stepOf, err
}

// judge compares got, the outcome of step s parked in its syscall call,
// and the files each host reads after it with s and in in serial order,
// in from before, in before s's parked syscall or after it — or, parked
// in a write, after any of its blocks (apply's at).
func judge(p *sim.Proc, nss []*vfs.Namespace, nfs bool, s step, call int, before *modelFS, in step, got outcome) error {
	// NFS promises an open the writes closed before it (close-to-open),
	// no more: its reads and writes racing another host's change are not
	// judged, and its writers' trees neither.
	other, changes := in.host != s.host, in.kind >= 0 && in.kind < 11
	if nfs && other && changes && s.kind >= 0 && s.kind < 11 {
		return nil
	}
	// The other host reads first: what the parked host owes the server
	// must not reach it by the parked host's own reads.
	trees := make([]map[string][]byte, len(nss))
	for _, h := range []int{1 - s.host, s.host} {
		trees[h] = map[string][]byte{}
		for _, name := range modelNames {
			if f, err := nss[h].Open(p, "/data/"+name, vfs.ReadOnly, 0); err == nil {
				trees[h][name], _ = f.ReadAt(p, 0, 1<<16)
				f.Close(p)
			}
		}
	}
	act := func(m *modelFS) { in.apply(m, 0, nil) }
	judged := s.kind >= 11 && !(nfs && other)
	lo, hi := call, call+1
	if call == 1 && s.kind < 11 {
		hi = 2 + (s.off+len(s.data)-1)/modelBlock - s.off/modelBlock
	} else if call == 2 {
		lo, hi = 99, 99
	}
	pre := s.apply(before.clone(), 2, act)
	for at := lo; at <= hi; at++ {
		m := before.clone()
		want := s.apply(m, at, act)
		if !maps.EqualFunc(trees[0], m.files, bytes.Equal) || !maps.EqualFunc(trees[1], m.files, bytes.Equal) {
			continue
		}
		// A file removed after its open reads as it was, from the
		// client's cache, or not at all: a client keeps no removed open
		// file at the server (no silly rename).
		if !judged || got.equal(want) || want.size < 0 && (got.failed || got.equal(outcome{}) || got.equal(pre)) ||
			at == 1 && torn(got, pre, want, s.off) {
			return nil
		}
	}
	return fmt.Errorf("step (kind %d, host %d, %s) read %v/%d/%d bytes: it and the trees after it match no serial order",
		s.kind, s.host, s.name, got.failed, got.size, len(got.data))
}

// torn reports whether got is a read the interferer tore between blocks:
// a read is atomic a block at a time, so each block is as read before the
// interferer (pre) or after it (post, cut or padded with zeros to the
// length the client's earlier size allows).
func torn(got, pre, post outcome, off int) bool {
	if got.failed || pre.failed || post.failed || got.size != pre.size && got.size != post.size ||
		len(got.data) != len(pre.data) && len(got.data) != len(post.data) {
		return false
	}
	after := make([]byte, len(got.data))
	copy(after, post.data)
	for a := 0; a < len(got.data); {
		b := min((off+a)/modelBlock*modelBlock+modelBlock-off, len(got.data))
		if !bytes.Equal(got.data[a:b], after[a:b]) && (b > len(pre.data) || !bytes.Equal(got.data[a:b], pre.data[a:b])) {
			return false
		}
		a = b
	}
	return true
}

// A parkRow is one world of the sweep pinned, once a hand-timed test: a
// script, its params, the park k, the interferer, and what the judge does
// not see — that a callback reached the parked host, the READs it sent,
// the bytes the parked read returned.
type parkRow struct {
	name     string
	pr       Proto
	pm       func(pm *Params)
	script   []step
	k        int
	in       string
	callback bool
	reads    int64
	read     []byte
}

// writeStep is step i writing size bytes at 0 through host, creating the
// file first if create.
func writeStep(i, host int, name string, size int, create bool) step {
	s := step{i: i, host: host, name: name, data: make([]byte, size), create: create}
	for j := range s.data {
		s.data[j] = byte(i + j)
	}
	return s
}

func readStep(name string, off int) step { return step{kind: 11, name: name, off: off, n: 100} }

// A read of block 0 sends block 1's read-ahead, and a write covering block
// 1 lands while it is out: the reply, older, is dropped, and two READs
// were sent. The park is the first after the read-ahead went out:
// NFS's next lookup (its cache kept across a close, the §5.2 bug fixed),
// SNFS's CLOSE. The server's cache holds one page, so the read-ahead waits
// on the disk while the interferer opens the file and writes.
var readAheadScript = []step{writeStep(1, 1, "a", 16384, true), readStep("a", 0), readStep("a", modelBlock)}

func coldServer(pm *Params) { pm.ServerCacheBytes = 4096 }

var parkRows = []parkRow{
	// An RFS write holds block 0 dirty while block 1's read-modify-write
	// fetch is out; the other host's write calls it back then, and the
	// invalidation writes block 0 home before it drops it.
	{"RFSInvalidationDuringWriteKeepsTheWrite", RFS, nil, []step{writeStep(1, 1, "a", 16384, true),
		writeStep(2, 0, "a", 12000, false)}, 9, "write@other", true, 0, nil},
	{"ReadAheadKeepsACoveringWrite/NFS", NFS, func(pm *Params) { coldServer(pm); pm.NFS.InvalidateOnClose = false },
		readAheadScript, 8, "write@same", false, 2, nil},
	{"ReadAheadKeepsACoveringWrite/SNFS", SNFS, coldServer, readAheadScript, 9, "write@same", false, 2, nil},
	// fsync's write-back of block 1 is on the wire when the block is
	// written again: the returning WRITE leaves it dirty. The update pass
	// and sync(2) clean through the same step (one MarkCleanIf,
	// TestStructuralCeilings). Found by the model check, SNFS seed 9.
	{"SNFSRewriteDuringWritebackIsNotLost", SNFS, nil, []step{writeStep(0, 0, "a", 16384, true)},
		5, "write@same", false, 0, nil},
	// A write whose block displaces a dirty one waits on its write-back,
	// and the other host's open calls the writer back meanwhile: the write
	// takes its block again (it was dropped) and, the file write-shared
	// now, sends it home (a delayed block would be missed by readers).
	{"SNFSInvalidationDuringEvictionKeepsTheWrite", SNFS, func(pm *Params) { pm.ClientCacheBytes = 2 * modelBlock },
		[]step{writeStep(1, 0, "a", 16384, true), writeStep(2, 0, "b", 8192, true)}, 7, "read@other", true, 0, nil},
	// The READ of block 1 is out when a covering write makes the block
	// resident: the fetch returns the write's buffer, which the read copies
	// before it parks again (with a park before the copy, the sweep's
	// remove@same and recreate@other read the scribbled buffer under the
	// frozencheck tag).
	{"FetchedBytesAreCopiedBeforeAPark", SNFS, nil, []step{writeStep(1, 1, "a", 16384, true), readStep("a", modelBlock)},
		8, "write@same", false, 0, patch.data[:100]},
}

func TestInterferenceAtEveryPark(t *testing.T) {
	params := func(edit func(*Params)) Params {
		pm := fastParams()
		pm.SNFS.UpdateInterval = 5 * sim.Second
		pm.Audit = true // the strict auditor, on SNFS worlds
		if edit != nil {
			edit(&pm)
		}
		return pm
	}
	for _, r := range parkRows {
		t.Run(r.name, func(t *testing.T) {
			in := slices.IndexFunc(parkMenu, func(in interferer) bool { return in.name == r.in })
			_, err := parkWorld(r.pr, params(r.pm), r.script, r.k, &parkMenu[in], func(w *World, got outcome) error {
				switch c := w.clients[0].Base; {
				case r.callback && c.CallbacksServed == 0:
					return fmt.Errorf("precondition: no callback reached the parked host")
				case r.reads != 0 && c.Ops().Get("read") != r.reads:
					return fmt.Errorf("the parked host sent %d READs, want %d", c.Ops().Get("read"), r.reads)
				case r.read != nil && !bytes.Equal(got.data, r.read):
					return fmt.Errorf("precondition: the parked read returned %q…", got.data[:min(len(got.data), 8)])
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s k=%d %s: %v", r.pr, r.k, r.in, err)
			}
		})
	}
	// Model-check scripts: seed 1, and the seeds where the sweep found a
	// bug seed 1 misses (a stale open's delayed writes and RFS's
	// truncations, 3; the auditor's overlapping writes, 5; a failed rename
	// and an O_TRUNC open's delayed writes, 19).
	for _, seed := range []int64{1, 3, 5, 19} {
		script := drawScript(seed, 20, 2)
		for _, pr := range []Proto{SNFS, NFS, RFS} {
			parks, err := parkWorld(pr, params(nil), script, 0, nil, nil)
			if err != nil {
				t.Fatalf("%s seed %d: the script alone: %v", pr, seed, err)
			}
			menu := parkMenu[:len(parkMenu)-1]
			if pr == SNFS {
				menu = parkMenu
			}
			Parallel(len(parks)*len(menu), func(i int) error {
				k, in := 1+i/len(menu), &menu[i%len(menu)]
				if _, err := parkWorld(pr, params(nil), script, k, in, nil); err != nil {
					t.Errorf("%s seed %d k=%d (step %d) %s: %v", pr, seed, k, parks[k-1], in.name, err)
				}
				return nil
			})
		}
	}
}
