// Package vfs is the file-system switch of the reproduction — the role
// Ultrix's Generic File System (GFS) layer plays in the paper (§4.1): a
// common file API over interchangeable implementations (local disk, NFS
// client, SNFS client), plus a mount table so a workload's paths can mix
// mounts exactly the way the benchmarks do (/data remote, /tmp local or
// remote).
//
// As in GFS, Open and Close are invoked for every file system type and
// for directories as well as files; the SNFS client turns them into its
// open/close RPCs (which is why SNFS pays an extra RPC on directory scans
// — the ScanDir effect in Table 5-1).
//
// It also holds the one path walk, Walk, a component at a time as in GFS;
// each file system calls it with its own step and readlink. Every
// component of a parent chain follows links, and the last one does too
// except in the operations that name an entry itself (Create, Mkdir,
// Remove, Rmdir, Rename, Link's destination, Symlink, Readlink).
package vfs

import (
	"errors"
	"fmt"
	"strings"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
)

// Flags control Open.
type Flags uint32

// Open flags (a Unix-like subset).
const (
	ReadOnly  Flags = 0
	WriteOnly Flags = 1 << iota
	ReadWrite
	Create
	Truncate
)

// Writing reports whether the flags request write access.
func (f Flags) Writing() bool { return f&(WriteOnly|ReadWrite) != 0 }

// ErrCrossMount is returned by Rename when source and destination resolve
// to different mounts.
var ErrCrossMount = errors.New("vfs: rename across mounts")

// FS is one mounted file system.
type FS interface {
	// Open opens path (slash-separated, relative to the FS root).
	Open(p *sim.Proc, path string, flags Flags, mode uint32) (File, error)
	// Mkdir creates a directory.
	Mkdir(p *sim.Proc, path string, mode uint32) error
	// Remove unlinks a regular file.
	Remove(p *sim.Proc, path string) error
	// Rmdir removes an empty directory.
	Rmdir(p *sim.Proc, path string) error
	// Rename moves oldpath to newpath within this FS.
	Rename(p *sim.Proc, oldpath, newpath string) error
	// Stat returns attributes without opening.
	Stat(p *sim.Proc, path string) (proto.Fattr, error)
	// Readdir lists a directory. Implementations that require open
	// state (SNFS) open and close the directory around the listing.
	Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error)
	// Link creates a hard link newpath to the file at oldpath.
	Link(p *sim.Proc, oldpath, newpath string) error
	// Symlink creates a symbolic link at linkpath pointing to target.
	Symlink(p *sim.Proc, target, linkpath string) error
	// Readlink returns the target of the symlink at path (the final
	// component is not followed).
	Readlink(p *sim.Proc, path string) (string, error)
	// SyncAll flushes all delayed writes (the sync(2) analogue used by
	// the update daemon).
	SyncAll(p *sim.Proc)
}

// File is an open file, lent by its FS: after Close it belongs to the
// FS again, which may hand it to the next Open, so the holder calls none
// of its methods, Close included, once Close is called. The cache lends
// a *cache.Block by the same rule.
type File interface {
	// ReadInto reads up to len(b) bytes at off into b and returns the
	// count: the one read path, as read(2) copies from the block cache
	// into a buffer the process owns (io.ReaderAt's shape, with the
	// process). n < len(b) with a nil error means end of file; at or
	// past it, n is 0. The caller owns b: an implementation does not
	// keep it and fills it with copies, so writing into b afterwards
	// reaches no cache and no file, and a later write to the file does
	// not change b.
	ReadInto(p *sim.Proc, b []byte, off int64) (int, error)
	// ReadAt reads up to n bytes at off into a fresh buffer; a short or
	// empty result means end of file. Every implementation is one call
	// of the package's ReadAt over its ReadInto. It stays only for
	// bench/probes.go, until ROADMAP's benchmark item (vi) moves that
	// probe onto ReadInto.
	ReadAt(p *sim.Proc, off int64, n int) ([]byte, error)
	// WriteAt writes data at off. It neither writes into data nor keeps
	// it past the call: the file and any cache take copies, so the
	// caller may reuse data, or share one read-only buffer among many
	// writes.
	WriteAt(p *sim.Proc, off int64, data []byte) (int, error)
	// Close releases the open; for NFS this is where pending writes
	// are synchronously flushed.
	Close(p *sim.Proc) error
	// Sync flushes this file's dirty blocks to stable storage.
	Sync(p *sim.Proc) error
	// Attr returns current attributes.
	Attr(p *sim.Proc) (proto.Fattr, error)
}

// ReadAt runs f.ReadInto on a fresh n-byte buffer and returns the bytes
// read, nil on error: File.ReadAt's old shape, kept only for
// bench/probes.go until ROADMAP's benchmark item (vi).
func ReadAt(p *sim.Proc, f File, off int64, n int) ([]byte, error) {
	b := make([]byte, n)
	m, err := f.ReadInto(p, b, off)
	if err != nil {
		return nil, err
	}
	return b[:m], nil
}

// MaxLinks bounds the links one walk expands. A parent chain and its last
// component are walked apart, each under its own bound, so a walk from
// the cwd cache meets the same bound as one from the root.
const MaxLinks = 8

// ErrLoop fails a walk that meets more than MaxLinks links: a cycle, or a
// chain too long to follow.
var ErrLoop = errors.New("vfs: too many levels of symbolic links")

// trim drops path's leading empty and "." components.
func trim(path string) string {
	for path != "" {
		name, rest, _ := strings.Cut(path, "/")
		if name != "" && name != "." {
			break
		}
		path = rest
	}
	return path
}

// Next returns path's first component and the path after it, both views
// of path: name is "" only when no component is left, rest "" when name
// is the last.
func Next(path string) (name, rest string) {
	name, rest, _ = strings.Cut(trim(path), "/")
	return name, trim(rest)
}

// Split returns path's last component and its parent chain; name is ""
// only for the root.
func Split(path string) (dir, name string) {
	for {
		path = strings.TrimRight(path, "/")
		i := strings.LastIndexByte(path, '/')
		if dir, name = path[:max(i, 0)], path[i+1:]; name != "." {
			return dir, name
		}
		path = dir
	}
}

// SamePath reports whether two paths name the same components.
func SamePath(a, b string) bool {
	for {
		var x, y string
		x, a = Next(a)
		y, b = Next(b)
		if x != y || x == "" {
			return x == y
		}
	}
}

// Walk resolves path from dir a step at a time. A step resolves path's
// first component in dir, or a run of them: the node reached, the
// directory holding it, the path left, and whether the node is a link.
// A link's target (readlink) replaces it in the path: a relative target
// from the link's directory, an absolute one from root (the file
// system's, not the namespace's); a link to its own directory is
// allowed. Walk allocates only a splice with components after the link.
//
// The first step after an absolute target restarts at root may fail
// ErrNotHome: the name is homed on another shard of a federation
// (DESIGN.md §8), which no map refetch cures. It fails ErrXDev instead,
// as a rename across shards does.
func Walk[N any](root, dir N, path string, step func(dir N, path string) (parent, node N, rest string, link bool, err error),
	readlink func(link N) (string, error)) (N, error) {
	var zero N
	links, viaRoot := 0, false
	for path = trim(path); path != ""; path = trim(path) {
		parent, node, rest, link, err := step(dir, path)
		if viaRoot && proto.StatusOf(err) == proto.ErrNotHome {
			err = proto.ErrXDev.Err()
		}
		if err != nil {
			return zero, err
		}
		dir, path, viaRoot = node, rest, false
		if !link {
			continue
		}
		if links++; links > MaxLinks {
			return zero, ErrLoop
		}
		target, err := readlink(node)
		if err != nil {
			return zero, err
		}
		dir, path = parent, target
		if rest != "" {
			path = target + "/" + rest
		}
		if strings.HasPrefix(target, "/") {
			dir, viaRoot = root, true
		}
	}
	return dir, nil
}

// mount is one namespace attachment.
type mount struct {
	prefix string // "/" or "/tmp" style, no trailing slash except root
	fs     FS
}

// Namespace is a mount table routing absolute paths to file systems.
type Namespace struct {
	mounts []mount
}

// Mount attaches fs at prefix (e.g. "/", "/tmp"). Longest prefix wins at
// resolution time.
func (ns *Namespace) Mount(prefix string, fs FS) {
	prefix = strings.TrimSuffix(prefix, "/")
	if prefix == "" {
		prefix = "/"
	}
	ns.mounts = append(ns.mounts, mount{prefix: prefix, fs: fs})
}

// Resolve maps an absolute path to its mount and FS-relative path. A
// prefix matches whole components, read as a walk reads them (Next), so
// "//tmp/f", "/./tmp/f" and "/tmp//f" are all under "/tmp", and "/tmpx/f"
// is not.
func (ns *Namespace) Resolve(path string) (FS, string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, "", fmt.Errorf("vfs: path %q not absolute", path)
	}
	var best *mount
	var rel string
	for i := range ns.mounts {
		m := &ns.mounts[i]
		if best != nil && len(m.prefix) <= len(best.prefix) {
			continue
		}
		if rest, ok := under(path, m.prefix); ok {
			best, rel = m, rest
		}
	}
	if best == nil {
		return nil, "", fmt.Errorf("vfs: no mount for %q", path)
	}
	return best.fs, rel, nil
}

// under reports whether path begins with every component of prefix, and
// returns the path after them.
func under(path, prefix string) (rest string, ok bool) {
	rest = trim(path)
	for {
		want, more := Next(prefix)
		if want == "" {
			return rest, true
		}
		var got string
		if got, rest = Next(rest); got != want {
			return "", false
		}
		prefix = more
	}
}

// Open opens an absolute path.
func (ns *Namespace) Open(p *sim.Proc, path string, flags Flags, mode uint32) (File, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.Open(p, rel, flags, mode)
}

// Mkdir creates a directory at an absolute path.
func (ns *Namespace) Mkdir(p *sim.Proc, path string, mode uint32) error {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return fs.Mkdir(p, rel, mode)
}

// Remove unlinks an absolute path.
func (ns *Namespace) Remove(p *sim.Proc, path string) error {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return fs.Remove(p, rel)
}

// Rmdir removes an empty directory at an absolute path.
func (ns *Namespace) Rmdir(p *sim.Proc, path string) error {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return fs.Rmdir(p, rel)
}

// Rename moves oldpath to newpath; both must be on the same mount.
func (ns *Namespace) Rename(p *sim.Proc, oldpath, newpath string) error {
	ofs, orel, err := ns.Resolve(oldpath)
	if err != nil {
		return err
	}
	nfs, nrel, err := ns.Resolve(newpath)
	if err != nil {
		return err
	}
	if ofs != nfs {
		return ErrCrossMount
	}
	return ofs.Rename(p, orel, nrel)
}

// Stat returns the attributes of an absolute path.
func (ns *Namespace) Stat(p *sim.Proc, path string) (proto.Fattr, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return proto.Fattr{}, err
	}
	return fs.Stat(p, rel)
}

// Readdir lists the directory at an absolute path.
func (ns *Namespace) Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.Readdir(p, rel)
}

// Link creates a hard link; both paths must be on the same mount.
func (ns *Namespace) Link(p *sim.Proc, oldpath, newpath string) error {
	ofs, orel, err := ns.Resolve(oldpath)
	if err != nil {
		return err
	}
	nfs, nrel, err := ns.Resolve(newpath)
	if err != nil {
		return err
	}
	if ofs != nfs {
		return ErrCrossMount
	}
	return ofs.Link(p, orel, nrel)
}

// Symlink creates a symbolic link at an absolute path. The target string
// is stored verbatim and interpreted at resolution time, relative to the
// link's directory (or the mount root when it begins with "/").
func (ns *Namespace) Symlink(p *sim.Proc, target, linkpath string) error {
	fs, rel, err := ns.Resolve(linkpath)
	if err != nil {
		return err
	}
	return fs.Symlink(p, target, rel)
}

// Readlink returns a symlink's target.
func (ns *Namespace) Readlink(p *sim.Proc, path string) (string, error) {
	fs, rel, err := ns.Resolve(path)
	if err != nil {
		return "", err
	}
	return fs.Readlink(p, rel)
}

// SyncAll flushes delayed writes on every mount (sync(2)).
func (ns *Namespace) SyncAll(p *sim.Proc) {
	done := map[FS]bool{}
	for _, m := range ns.mounts {
		if !done[m.fs] {
			done[m.fs] = true
			m.fs.SyncAll(p)
		}
	}
}

// ---- convenience helpers used heavily by workloads ----

// zeroChunk is the read-only chunk WriteFile writes from, shared by every
// call: WriteAt neither writes into nor keeps what it is handed.
var zeroChunk [64 << 10]byte

// errEmptyBuffer refuses a whole-file read through an empty buffer, which
// would make no progress.
var errEmptyBuffer = errors.New("vfs: empty read buffer")

// WriteFile creates (truncating) path and writes size zero bytes through
// it in chunkSize pieces, then closes. Chunks up to 64 KiB come from one
// shared zero chunk; a larger chunk allocates its own.
func (ns *Namespace) WriteFile(p *sim.Proc, path string, size int, chunkSize int) error {
	f, err := ns.Open(p, path, WriteOnly|Create|Truncate, 0o644)
	if err != nil {
		return err
	}
	if chunkSize <= 0 {
		chunkSize = 8192
	}
	buf := zeroChunk[:]
	if chunkSize > len(buf) {
		buf = make([]byte, chunkSize)
	}
	off := int64(0)
	for remaining := size; remaining > 0; {
		n := chunkSize
		if remaining < n {
			n = remaining
		}
		if _, err := f.WriteAt(p, off, buf[:n]); err != nil {
			f.Close(p)
			return err
		}
		off += int64(n)
		remaining -= n
	}
	return f.Close(p)
}

// ReadFile opens path and reads it sequentially to the end through buf,
// len(buf) bytes at a time, returning the number of bytes read. buf is
// the caller's, reused across calls; it holds the file's last chunk.
func (ns *Namespace) ReadFile(p *sim.Proc, path string, buf []byte) (int64, error) {
	if len(buf) == 0 {
		return 0, errEmptyBuffer
	}
	f, err := ns.Open(p, path, ReadOnly, 0)
	if err != nil {
		return 0, err
	}
	var off int64
	for {
		n, err := f.ReadInto(p, buf, off)
		if err != nil {
			f.Close(p)
			return off, err
		}
		off += int64(n)
		if n < len(buf) {
			break
		}
	}
	return off, f.Close(p)
}

// CopyFile reads src and writes it to dst through buf, len(buf) bytes at
// a time.
func (ns *Namespace) CopyFile(p *sim.Proc, src, dst string, buf []byte) (int64, error) {
	if len(buf) == 0 {
		return 0, errEmptyBuffer
	}
	in, err := ns.Open(p, src, ReadOnly, 0)
	if err != nil {
		return 0, err
	}
	out, err := ns.Open(p, dst, WriteOnly|Create|Truncate, 0o644)
	if err != nil {
		in.Close(p)
		return 0, err
	}
	var off int64
	for {
		n, err := in.ReadInto(p, buf, off)
		if err != nil {
			in.Close(p)
			out.Close(p)
			return off, err
		}
		if n == 0 {
			break
		}
		if _, err := out.WriteAt(p, off, buf[:n]); err != nil {
			in.Close(p)
			out.Close(p)
			return off, err
		}
		off += int64(n)
		if n < len(buf) {
			break
		}
	}
	if err := in.Close(p); err != nil {
		out.Close(p)
		return off, err
	}
	return off, out.Close(p)
}
