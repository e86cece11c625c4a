// Package localmount adapts the local file system (localfs) to the vfs
// interface — the "local disk" configuration of the paper's benchmarks.
// It applies the traditional Unix write policy: data writes are delayed
// in the buffer cache and reach the disk when the update daemon syncs
// (every 30 seconds), when cache pressure evicts them, or when a file is
// explicitly fsync'd; structural (metadata) changes are written
// synchronously. Deleting a file cancels its pending data writes, but the
// structural writes still happen — which is why, in Table 5-5, SNFS with
// infinite write-delay can actually beat the local disk on temp-file
// workloads.
package localmount

import (
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/vfs"
)

// FS is a local-disk mount.
type FS struct {
	k     *sim.Kernel
	media *localfs.Media
	// Spans, when set, roots each syscall in a span on host "local".
	// The roots carry no op ID: a local syscall mints none, and the
	// process's own ID is the previous remote syscall's.
	Spans *span.Recorder
}

// New returns a local mount over media.
func New(k *sim.Kernel, media *localfs.Media) *FS {
	return &FS{k: k, media: media}
}

// syscall opens a method's root span, which the method ends when it
// returns.
func (f *FS) syscall(p *sim.Proc, name string) span.Handle {
	return f.Spans.Root(p, "local", name, 0)
}

func (f *FS) store() *localfs.Store { return f.media.Store() }

// walk resolves rel to an inode, following links in every component.
func (f *FS) walk(rel string) (localfs.Attr, error) {
	dir, name := vfs.Split(rel)
	ino, err := f.walkFrom(f.store().Root(), dir)
	if err == nil {
		ino, err = f.walkFrom(ino, name)
	}
	if err != nil {
		return localfs.Attr{}, err
	}
	return f.store().GetAttr(ino)
}

// walkParent resolves rel's parent chain, following links, and returns
// the directory with the last component's name, which it does not look
// up.
func (f *FS) walkParent(rel string) (uint64, string, error) {
	dir, name := vfs.Split(rel)
	if name == "" {
		return 0, "", localfs.ErrInval
	}
	ino, err := f.walkFrom(f.store().Root(), dir)
	return ino, name, err
}

// walkFrom walks path from the directory dir (vfs.Walk), one store
// lookup a step.
func (f *FS) walkFrom(dir uint64, path string) (uint64, error) {
	st := f.store()
	return vfs.Walk(st.Root(), dir, path, func(dir uint64, path string) (uint64, uint64, string, bool, error) {
		name, rest := vfs.Next(path)
		a, err := st.Lookup(dir, name)
		return dir, a.Ino, rest, a.Type == localfs.TypeSymlink, err
	}, st.Readlink)
}

// Open implements vfs.FS.
func (f *FS) Open(p *sim.Proc, rel string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	defer f.syscall(p, "open").End()
	var attr localfs.Attr
	var err error
	if flags&vfs.Create != 0 {
		var dir uint64
		var name string
		dir, name, err = f.walkParent(rel)
		if err != nil {
			return nil, err
		}
		existing, lerr := f.store().Lookup(dir, name)
		attr, err = f.store().Create(dir, name, mode)
		if err != nil {
			return nil, err
		}
		if lerr == nil {
			// Truncating re-create: pending writes are moot.
			f.media.Cancel(existing.Ino)
		}
		f.media.ChargeMeta(p)
	} else {
		attr, err = f.walk(rel)
		if err != nil {
			return nil, err
		}
		if flags&vfs.Truncate != 0 && attr.Type == localfs.TypeRegular {
			attr, err = f.store().Truncate(attr.Ino, 0)
			if err != nil {
				return nil, err
			}
			f.media.Cancel(attr.Ino)
			f.media.ChargeMeta(p)
		}
	}
	return &file{fs: f, ino: attr.Ino}, nil
}

// Mkdir implements vfs.FS.
func (f *FS) Mkdir(p *sim.Proc, rel string, mode uint32) error {
	defer f.syscall(p, "mkdir").End()
	dir, name, err := f.walkParent(rel)
	if err != nil {
		return err
	}
	if _, err := f.store().Mkdir(dir, name, mode); err != nil {
		return err
	}
	f.media.ChargeMeta(p)
	return nil
}

// Remove implements vfs.FS; pending delayed writes of the victim are
// cancelled (they never reach the disk), but the structural update is
// still charged.
func (f *FS) Remove(p *sim.Proc, rel string) error {
	defer f.syscall(p, "remove").End()
	dir, name, err := f.walkParent(rel)
	if err != nil {
		return err
	}
	removed, err := f.store().Remove(dir, name)
	if err != nil {
		return err
	}
	if removed.Nlink <= 1 {
		f.media.Cancel(removed.Ino)
	}
	f.media.ChargeMeta(p)
	return nil
}

// Rmdir implements vfs.FS.
func (f *FS) Rmdir(p *sim.Proc, rel string) error {
	defer f.syscall(p, "rmdir").End()
	dir, name, err := f.walkParent(rel)
	if err != nil {
		return err
	}
	if err := f.store().Rmdir(dir, name); err != nil {
		return err
	}
	f.media.ChargeMeta(p)
	return nil
}

// Rename implements vfs.FS.
func (f *FS) Rename(p *sim.Proc, oldrel, newrel string) error {
	defer f.syscall(p, "rename").End()
	sdir, sname, err := f.walkParent(oldrel)
	if err != nil {
		return err
	}
	ddir, dname, err := f.walkParent(newrel)
	if err != nil {
		return err
	}
	if err := f.store().Rename(sdir, sname, ddir, dname); err != nil {
		return err
	}
	f.media.ChargeMeta(p)
	return nil
}

// Stat implements vfs.FS.
func (f *FS) Stat(p *sim.Proc, rel string) (proto.Fattr, error) {
	defer f.syscall(p, "stat").End()
	attr, err := f.walk(rel)
	if err != nil {
		return proto.Fattr{}, err
	}
	return proto.FattrFromAttr(attr, f.store().BlockSize()), nil
}

// Readdir implements vfs.FS.
func (f *FS) Readdir(p *sim.Proc, rel string) ([]proto.DirEntry, error) {
	defer f.syscall(p, "readdir").End()
	attr, err := f.walk(rel)
	if err != nil {
		return nil, err
	}
	ents, err := f.store().Readdir(attr.Ino)
	if err != nil {
		return nil, err
	}
	out := make([]proto.DirEntry, len(ents))
	for i, e := range ents {
		out[i] = proto.DirEntry{Name: e.Name, Fileid: e.Ino}
	}
	return out, nil
}

// Link implements vfs.FS.
func (f *FS) Link(p *sim.Proc, oldrel, newrel string) error {
	defer f.syscall(p, "link").End()
	src, err := f.walk(oldrel)
	if err != nil {
		return err
	}
	dir, name, err := f.walkParent(newrel)
	if err != nil {
		return err
	}
	if _, err := f.store().Link(dir, name, src.Ino); err != nil {
		return err
	}
	f.media.ChargeMeta(p)
	return nil
}

// Symlink implements vfs.FS.
func (f *FS) Symlink(p *sim.Proc, target, linkrel string) error {
	defer f.syscall(p, "symlink").End()
	dir, name, err := f.walkParent(linkrel)
	if err != nil {
		return err
	}
	if _, err := f.store().Symlink(dir, name, target); err != nil {
		return err
	}
	f.media.ChargeMeta(p)
	return nil
}

// Readlink implements vfs.FS (the final component is not followed).
func (f *FS) Readlink(p *sim.Proc, rel string) (string, error) {
	defer f.syscall(p, "readlink").End()
	dir, name, err := f.walkParent(rel)
	if err != nil {
		return "", err
	}
	attr, err := f.store().Lookup(dir, name)
	if err != nil {
		return "", err
	}
	return f.store().Readlink(attr.Ino)
}

// SyncAll implements vfs.FS: flush every delayed write (sync(2)).
func (f *FS) SyncAll(p *sim.Proc) {
	defer f.syscall(p, "syncall").End()
	f.media.SyncOlderThan(p.Now())
}

// file is an open local file.
type file struct {
	fs  *FS
	ino uint64
}

// ReadInto implements vfs.File.
func (fl *file) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	defer fl.fs.syscall(p, "read").End()
	data, err := fl.fs.media.ReadAt(p, fl.ino, off, len(b))
	if err != nil {
		return 0, err
	}
	// data is a view of the file; the application gets a copy in b.
	return copy(b, data), nil
}

// ReadAt implements vfs.File; it stays only for bench/probes.go, until
// ROADMAP's benchmark item (vi).
func (fl *file) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, fl, off, n)
}

// WriteAt implements vfs.File with the delayed-write policy.
func (fl *file) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	defer fl.fs.syscall(p, "write").End()
	if _, err := fl.fs.store().WriteAt(fl.ino, off, data); err != nil {
		return 0, err
	}
	fl.fs.media.ChargeWriteDelayed(p.Now(), fl.ino, off, len(data))
	return len(data), nil
}

// Close implements vfs.File. Local closes flush nothing: delayed writes
// stay in the buffer cache.
func (fl *file) Close(p *sim.Proc) error {
	defer fl.fs.syscall(p, "close").End()
	return nil
}

// Sync implements vfs.File (fsync).
func (fl *file) Sync(p *sim.Proc) error {
	defer fl.fs.syscall(p, "sync").End()
	fl.fs.media.SyncFile(p, fl.ino)
	return nil
}

// Attr implements vfs.File.
func (fl *file) Attr(p *sim.Proc) (proto.Fattr, error) {
	defer fl.fs.syscall(p, "attr").End()
	attr, err := fl.fs.store().GetAttr(fl.ino)
	if err != nil {
		return proto.Fattr{}, err
	}
	return proto.FattrFromAttr(attr, fl.fs.store().BlockSize()), nil
}
