// Package spanfs is the syscall-boundary attachment of the span layer:
// a vfs wrapper that roots one span per operation. It lives outside
// package span so the low-level packages (disk, rpc) can import span
// without dragging in the vfs/proto surface.
package spanfs

import (
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/vfs"
)

// WrapFS interposes the recorder at a client's syscall boundary: every
// vfs operation (and every operation on the files it opens) becomes a
// root span. Wrap outside the audit wrapper, before mounting, so the
// root covers the whole syscall. With a nil recorder the inner FS is
// returned unwrapped, keeping the off configuration zero-cost.
func WrapFS(r *span.Recorder, host string, inner vfs.FS) vfs.FS {
	if r == nil {
		return inner
	}
	return &spanFS{r: r, host: host, inner: inner}
}

type spanFS struct {
	r     *span.Recorder
	host  string
	inner vfs.FS
}

func (w *spanFS) root(p *sim.Proc, name string) span.Handle {
	return w.r.Begin(p, w.host, span.Syscall, name)
}

func (w *spanFS) Open(p *sim.Proc, path string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	sp := w.root(p, "open")
	f, err := w.inner.Open(p, path, flags, mode)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &spanFile{r: w.r, host: w.host, inner: f}, nil
}

func (w *spanFS) Mkdir(p *sim.Proc, path string, mode uint32) error {
	sp := w.root(p, "mkdir")
	defer sp.End()
	return w.inner.Mkdir(p, path, mode)
}

func (w *spanFS) Remove(p *sim.Proc, path string) error {
	sp := w.root(p, "remove")
	defer sp.End()
	return w.inner.Remove(p, path)
}

func (w *spanFS) Rmdir(p *sim.Proc, path string) error {
	sp := w.root(p, "rmdir")
	defer sp.End()
	return w.inner.Rmdir(p, path)
}

func (w *spanFS) Rename(p *sim.Proc, oldpath, newpath string) error {
	sp := w.root(p, "rename")
	defer sp.End()
	return w.inner.Rename(p, oldpath, newpath)
}

func (w *spanFS) Stat(p *sim.Proc, path string) (proto.Fattr, error) {
	sp := w.root(p, "stat")
	defer sp.End()
	return w.inner.Stat(p, path)
}

func (w *spanFS) Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	sp := w.root(p, "readdir")
	defer sp.End()
	return w.inner.Readdir(p, path)
}

func (w *spanFS) Link(p *sim.Proc, oldpath, newpath string) error {
	sp := w.root(p, "link")
	defer sp.End()
	return w.inner.Link(p, oldpath, newpath)
}

func (w *spanFS) Symlink(p *sim.Proc, target, linkpath string) error {
	sp := w.root(p, "symlink")
	defer sp.End()
	return w.inner.Symlink(p, target, linkpath)
}

func (w *spanFS) Readlink(p *sim.Proc, path string) (string, error) {
	sp := w.root(p, "readlink")
	defer sp.End()
	return w.inner.Readlink(p, path)
}

func (w *spanFS) SyncAll(p *sim.Proc) {
	sp := w.root(p, "syncall")
	defer sp.End()
	w.inner.SyncAll(p)
}

type spanFile struct {
	r     *span.Recorder
	host  string
	inner vfs.File
}

// Handle lets stacked wrappers (the auditor's, tests) reach the
// protocol handle through this one.
func (f *spanFile) Handle() proto.Handle {
	if hf, ok := f.inner.(interface{ Handle() proto.Handle }); ok {
		return hf.Handle()
	}
	return proto.Handle{}
}

func (f *spanFile) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	sp := f.r.Begin(p, f.host, span.Syscall, "read")
	defer sp.End()
	return f.inner.ReadInto(p, b, off)
}

// ReadAt stays only for bench/probes.go, until ROADMAP's benchmark item
// (vi).
func (f *spanFile) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}

func (f *spanFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	sp := f.r.Begin(p, f.host, span.Syscall, "write")
	defer sp.End()
	return f.inner.WriteAt(p, off, data)
}

func (f *spanFile) Close(p *sim.Proc) error {
	sp := f.r.Begin(p, f.host, span.Syscall, "close")
	defer sp.End()
	return f.inner.Close(p)
}

func (f *spanFile) Sync(p *sim.Proc) error {
	sp := f.r.Begin(p, f.host, span.Syscall, "sync")
	defer sp.End()
	return f.inner.Sync(p)
}

func (f *spanFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	sp := f.r.Begin(p, f.host, span.Syscall, "attr")
	defer sp.End()
	return f.inner.Attr(p)
}
