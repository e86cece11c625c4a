package audit

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// Handled is implemented by files that can name their protocol-level file
// handle (the SNFS and NFS client files do). The wrapper audits only
// files exposing it; anything else passes through untouched.
type Handled interface {
	Handle() proto.Handle
}

// WrapFS interposes the auditor at a client's syscall boundary: reads are
// checked against the write ledger, writes feed it, and creates/truncates
// reset it. Wrap the FS before mounting it in a namespace so every
// workload path is witnessed.
func (a *Auditor) WrapFS(inner vfs.FS) vfs.FS {
	return &auditFS{a: a, inner: inner}
}

type auditFS struct {
	a     *Auditor
	inner vfs.FS
}

func (w *auditFS) Open(p *sim.Proc, path string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	start := p.Now()
	f, err := w.inner.Open(p, path, flags, mode)
	if err != nil {
		return nil, err
	}
	hf, ok := f.(Handled)
	if !ok {
		return f, nil
	}
	h := hf.Handle()
	if flags&(vfs.Create|vfs.Truncate) != 0 {
		// Fresh contents by construction: prior history is void.
		w.a.ResetLedger(h, start)
	}
	return &auditFile{a: w.a, inner: f, h: h}, nil
}

func (w *auditFS) Mkdir(p *sim.Proc, path string, mode uint32) error {
	return w.inner.Mkdir(p, path, mode)
}
func (w *auditFS) Remove(p *sim.Proc, path string) error { return w.inner.Remove(p, path) }
func (w *auditFS) Rmdir(p *sim.Proc, path string) error  { return w.inner.Rmdir(p, path) }
func (w *auditFS) Rename(p *sim.Proc, oldpath, newpath string) error {
	return w.inner.Rename(p, oldpath, newpath)
}
func (w *auditFS) Stat(p *sim.Proc, path string) (proto.Fattr, error) {
	return w.inner.Stat(p, path)
}
func (w *auditFS) Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	return w.inner.Readdir(p, path)
}
func (w *auditFS) Link(p *sim.Proc, oldpath, newpath string) error {
	return w.inner.Link(p, oldpath, newpath)
}
func (w *auditFS) Symlink(p *sim.Proc, target, linkpath string) error {
	return w.inner.Symlink(p, target, linkpath)
}
func (w *auditFS) Readlink(p *sim.Proc, path string) (string, error) {
	return w.inner.Readlink(p, path)
}
func (w *auditFS) SyncAll(p *sim.Proc) { w.inner.SyncAll(p) }

// auditFile wraps one open file. Read results are checked against the
// ledger; writes feed it. Timestamps straddle the inner call so the
// legitimate concurrent-read race window is modeled exactly.
type auditFile struct {
	a     *Auditor
	inner vfs.File
	h     proto.Handle
}

func (f *auditFile) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	start := p.Now()
	n, err := f.inner.ReadInto(p, b, off)
	if err == nil {
		f.a.CheckRead(p.Op(), f.h, off, b[:n], start, p.Now())
	}
	return n, err
}

// ReadAt stays only for bench/probes.go, until ROADMAP's benchmark item
// (vi).
func (f *auditFile) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}

func (f *auditFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	// Record before the inner call: the server can serve the new bytes
	// to a concurrent reader while this syscall is still in flight. The
	// op is taken after it, once the client has minted the syscall's.
	pw := f.a.WriteBegin(f.h, off, data, p.Now())
	n, err := f.inner.WriteAt(p, off, data)
	f.a.WriteEnd(pw, p.Op(), p.Now(), err == nil)
	return n, err
}

func (f *auditFile) Close(p *sim.Proc) error { return f.inner.Close(p) }
func (f *auditFile) Sync(p *sim.Proc) error  { return f.inner.Sync(p) }
func (f *auditFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	return f.inner.Attr(p)
}
