// Package localfs implements the Unix-like local file system that backs
// both the servers (as the store their NFS/SNFS service code translates
// RPCs into, the role GFS + the Unix FS played in Ultrix) and the
// "local disk" benchmark configuration on clients.
//
// It is split in two layers: Store is the pure inode/namespace layer
// (directories, attributes, file contents), and Media charges simulated
// disk costs and models block residency in a buffer cache, so reads that
// hit in memory are free while synchronous writes pay the full
// access-plus-transfer price the paper's analysis turns on.
package localfs

import (
	"errors"
	"fmt"
	"slices"

	"spritelynfs/internal/sim"
)

// FileType distinguishes regular files from directories.
type FileType uint32

// File types.
const (
	TypeRegular FileType = iota + 1
	TypeDirectory
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDirectory:
		return "dir"
	case TypeSymlink:
		return "symlink"
	}
	return fmt.Sprintf("FileType(%d)", uint32(t))
}

// Namespace and file errors. The NFS server maps these onto wire status
// codes.
var (
	ErrNoEnt    = errors.New("localfs: no such file or directory")
	ErrExist    = errors.New("localfs: file exists")
	ErrNotDir   = errors.New("localfs: not a directory")
	ErrIsDir    = errors.New("localfs: is a directory")
	ErrNotEmpty = errors.New("localfs: directory not empty")
	ErrStale    = errors.New("localfs: stale file handle")
	ErrInval    = errors.New("localfs: invalid argument")
)

// Attr is the attribute record for an inode (the paper's "attributes
// record", what NFS getattr returns).
type Attr struct {
	Ino    uint64
	Gen    uint32
	Type   FileType
	Mode   uint32
	Nlink  uint32
	Size   int64
	Blocks int64 // allocated blocks, from Size and the block size
	Atime  sim.Time
	Mtime  sim.Time
	Ctime  sim.Time
}

// Dirent is one directory entry.
type Dirent struct {
	Name string
	Ino  uint64
}

// pageSize is the size of a file page: the testbed's 8 KiB transfer size,
// so an aligned READ falls in one page and an aligned WRITE fills one. It
// is not the block size, which prices the disk and the buffer cache.
const pageSize = 8192

// zeroPage is what a hole reads as. Like every view, it is read-only.
var zeroPage [pageSize]byte

// page is one pageSize span of a regular file. Bytes past the file's size
// are zero, in every page, and so are bytes past len(b).
type page struct {
	// b is pageSize bytes, or nil, a hole reading as zeros, or, frozen
	// only, short: a short page is the file's last page and holds every
	// byte of the file that falls in it.
	b []byte
	// frozen means b aliases bytes someone else holds (a delivered call
	// image, or a view a read handed out): copy before writing.
	frozen bool
}

// bytes returns the page's contents, read-only.
func (pg page) bytes() []byte {
	if pg.b == nil {
		return zeroPage[:]
	}
	return pg.b
}

// inode is the in-memory on-"disk" object.
type inode struct {
	attr    Attr
	pages   []page            // regular files: exactly the pages Size covers
	entries map[string]uint64 // directories
	names   []string          // directory entry order for readdir
	parent  uint64            // directories: parent inode
	target  string            // symlinks
}

// Store is the inode and namespace layer.
type Store struct {
	clock     func() sim.Time
	blockSize int
	inodes    map[uint64]*inode
	nextIno   uint64
	nextGen   uint32
	root      uint64
}

// NewStore returns a store with an empty root directory. clock supplies
// timestamps (typically Kernel.Now); blockSize is the natural file system
// block size (the paper's tests used 4 kbytes).
func NewStore(clock func() sim.Time, blockSize int) *Store {
	if blockSize <= 0 {
		blockSize = 4096
	}
	s := &Store{
		clock:     clock,
		blockSize: blockSize,
		inodes:    make(map[uint64]*inode),
	}
	root := s.alloc(TypeDirectory, 0o755)
	root.parent = root.attr.Ino
	s.root = root.attr.Ino
	return s
}

// BlockSize returns the file system block size.
func (s *Store) BlockSize() int { return s.blockSize }

// Root returns the root directory's inode number.
func (s *Store) Root() uint64 { return s.root }

func (s *Store) alloc(t FileType, mode uint32) *inode {
	s.nextIno++
	s.nextGen++
	now := s.clock()
	in := &inode{
		attr: Attr{
			Ino:   s.nextIno,
			Gen:   s.nextGen,
			Type:  t,
			Mode:  mode,
			Nlink: 1,
			Atime: now,
			Mtime: now,
			Ctime: now,
		},
	}
	if t == TypeDirectory {
		in.entries = make(map[string]uint64)
		in.attr.Nlink = 2
	}
	s.inodes[in.attr.Ino] = in
	return in
}

func (s *Store) get(ino uint64) (*inode, error) {
	in, ok := s.inodes[ino]
	if !ok {
		return nil, fmt.Errorf("%w: inode %d", ErrStale, ino)
	}
	return in, nil
}

func (s *Store) getDir(ino uint64) (*inode, error) {
	in, err := s.get(ino)
	if err != nil {
		return nil, err
	}
	if in.attr.Type != TypeDirectory {
		return nil, ErrNotDir
	}
	return in, nil
}

// GetAttr returns the attributes of ino.
func (s *Store) GetAttr(ino uint64) (Attr, error) {
	in, err := s.get(ino)
	if err != nil {
		return Attr{}, err
	}
	a := in.attr
	a.Blocks = s.blocksFor(a.Size)
	return a, nil
}

func (s *Store) blocksFor(size int64) int64 {
	bs := int64(s.blockSize)
	return (size + bs - 1) / bs
}

// Lookup resolves one name component in directory dir.
func (s *Store) Lookup(dir uint64, name string) (Attr, error) {
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	switch name {
	case ".", "":
		return s.GetAttr(dir)
	case "..":
		return s.GetAttr(d.parent)
	}
	ino, ok := d.entries[name]
	if !ok {
		return Attr{}, fmt.Errorf("%w: %q", ErrNoEnt, name)
	}
	return s.GetAttr(ino)
}

func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("%w: name %q", ErrInval, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("%w: name %q", ErrInval, name)
		}
	}
	return nil
}

// Create makes a regular file name in dir. If the name already exists and
// is a regular file, it is truncated to zero length (Unix open-with-
// O_CREAT|O_TRUNC semantics, which is what the NFS create procedure
// provides); the number of data blocks discarded is returned so the
// caller can cancel pending writes.
func (s *Store) Create(dir uint64, name string, mode uint32) (Attr, error) {
	if err := validName(name); err != nil {
		return Attr{}, err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	if existing, ok := d.entries[name]; ok {
		in, err := s.get(existing)
		if err != nil {
			return Attr{}, err
		}
		if in.attr.Type == TypeDirectory {
			return Attr{}, ErrIsDir
		}
		in.truncate(0)
		now := s.clock()
		in.attr.Mtime = now
		in.attr.Ctime = now
		return s.GetAttr(existing)
	}
	in := s.alloc(TypeRegular, mode)
	d.entries[name] = in.attr.Ino
	d.names = append(d.names, name)
	now := s.clock()
	d.attr.Mtime = now
	d.attr.Ctime = now
	return s.GetAttr(in.attr.Ino)
}

// Mkdir makes a directory name in dir.
func (s *Store) Mkdir(dir uint64, name string, mode uint32) (Attr, error) {
	if err := validName(name); err != nil {
		return Attr{}, err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	if _, ok := d.entries[name]; ok {
		return Attr{}, fmt.Errorf("%w: %q", ErrExist, name)
	}
	in := s.alloc(TypeDirectory, mode)
	in.parent = dir
	d.entries[name] = in.attr.Ino
	d.names = append(d.names, name)
	d.attr.Nlink++
	now := s.clock()
	d.attr.Mtime = now
	d.attr.Ctime = now
	return s.GetAttr(in.attr.Ino)
}

// Remove unlinks regular file name from dir, returning the attributes it
// had (so callers can cancel delayed writes for its blocks).
func (s *Store) Remove(dir uint64, name string) (Attr, error) {
	if err := validName(name); err != nil {
		return Attr{}, err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	ino, ok := d.entries[name]
	if !ok {
		return Attr{}, fmt.Errorf("%w: %q", ErrNoEnt, name)
	}
	in, err := s.get(ino)
	if err != nil {
		return Attr{}, err
	}
	if in.attr.Type == TypeDirectory {
		return Attr{}, ErrIsDir
	}
	attr := in.attr
	attr.Blocks = s.blocksFor(attr.Size)
	s.unlink(d, name)
	in.attr.Nlink--
	if in.attr.Nlink == 0 {
		delete(s.inodes, ino)
	}
	return attr, nil
}

// Rmdir removes empty directory name from dir.
func (s *Store) Rmdir(dir uint64, name string) error {
	if err := validName(name); err != nil {
		return err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return err
	}
	ino, ok := d.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoEnt, name)
	}
	in, err := s.get(ino)
	if err != nil {
		return err
	}
	if in.attr.Type != TypeDirectory {
		return ErrNotDir
	}
	if len(in.entries) != 0 {
		return ErrNotEmpty
	}
	s.unlink(d, name)
	d.attr.Nlink--
	delete(s.inodes, ino)
	return nil
}

func (s *Store) unlink(d *inode, name string) {
	delete(d.entries, name)
	for i, n := range d.names {
		if n == name {
			d.names = append(d.names[:i], d.names[i+1:]...)
			break
		}
	}
	now := s.clock()
	d.attr.Mtime = now
	d.attr.Ctime = now
}

// Rename moves srcName in srcDir to dstName in dstDir, replacing any
// existing regular file at the destination.
func (s *Store) Rename(srcDir uint64, srcName string, dstDir uint64, dstName string) error {
	if err := validName(srcName); err != nil {
		return err
	}
	if err := validName(dstName); err != nil {
		return err
	}
	sd, err := s.getDir(srcDir)
	if err != nil {
		return err
	}
	dd, err := s.getDir(dstDir)
	if err != nil {
		return err
	}
	ino, ok := sd.entries[srcName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoEnt, srcName)
	}
	moving, err := s.get(ino)
	if err != nil {
		return err
	}
	if existing, ok := dd.entries[dstName]; ok {
		if existing == ino {
			return nil
		}
		ex, err := s.get(existing)
		if err != nil {
			return err
		}
		if ex.attr.Type == TypeDirectory {
			if moving.attr.Type != TypeDirectory {
				return ErrIsDir
			}
			if len(ex.entries) != 0 {
				return ErrNotEmpty
			}
			dd.attr.Nlink--
		} else if moving.attr.Type == TypeDirectory {
			return ErrNotDir
		}
		s.unlink(dd, dstName)
		ex.attr.Nlink--
		if ex.attr.Nlink == 0 || ex.attr.Type == TypeDirectory {
			delete(s.inodes, existing)
		}
	}
	s.unlink(sd, srcName)
	dd.entries[dstName] = ino
	dd.names = append(dd.names, dstName)
	now := s.clock()
	dd.attr.Mtime = now
	dd.attr.Ctime = now
	if moving.attr.Type == TypeDirectory && srcDir != dstDir {
		moving.parent = dstDir
		sd.attr.Nlink--
		dd.attr.Nlink++
	}
	return nil
}

// pagesFor returns the number of pages size bytes span.
func pagesFor(size int64) int { return int((size + pageSize - 1) / pageSize) }

// truncate sets the file's size. A shrink drops the pages past the new
// size, cleared so they can be collected, and ends the new last page at
// the new size: a frozen page is cut short, any other has its tail
// zeroed. A growth first makes a short last page whole, since it no longer
// holds the file's end, then extends the page table with holes, sized
// once.
func (in *inode) truncate(size int64) {
	if last := len(in.pages) - 1; size > in.attr.Size && last >= 0 {
		if b := in.pages[last].b; b != nil && len(b) < pageSize {
			in.writable(last)
		}
	}
	if n := pagesFor(size); n < len(in.pages) {
		clear(in.pages[n:])
		in.pages = in.pages[:n]
	} else {
		in.pages = slices.Grow(in.pages, n-len(in.pages))[:n]
	}
	if last, tail := int(size/pageSize), int(size%pageSize); size < in.attr.Size && tail != 0 {
		switch pg := &in.pages[last]; {
		case pg.b == nil:
		case pg.frozen:
			pg.b = pg.b[:tail:tail]
		default:
			clear(pg.b[tail:])
		}
	}
	in.attr.Size = size
}

// writable returns page i's bytes for writing, pageSize long. A hole gets
// a fresh page, and a frozen page — one someone else may hold a view of,
// short or whole — is copied first, so the view keeps the bytes it had;
// otherwise the write lands in place.
func (in *inode) writable(i int) []byte {
	pg := &in.pages[i]
	if pg.b == nil || pg.frozen {
		b := make([]byte, pageSize)
		copy(b, pg.b)
		*pg = page{b: b}
	}
	return pg.b
}

// ReadAt reads up to n bytes of file ino at offset off. Reads at or past
// end-of-file return an empty slice. A read that falls in one page — every
// aligned 8 KiB READ does — returns a read-only view of the page and
// freezes it: a later write copies the page first, so the view keeps the
// bytes of the read instant for as long as anyone holds it, a READ reply
// and the client cache that keeps it included. A read that spans pages
// returns a fresh copy.
func (s *Store) ReadAt(ino uint64, off int64, n int) ([]byte, error) {
	in, err := s.get(ino)
	if err != nil {
		return nil, err
	}
	if in.attr.Type == TypeDirectory {
		return nil, ErrIsDir
	}
	if off < 0 || n < 0 {
		return nil, ErrInval
	}
	if off >= in.attr.Size {
		return nil, nil
	}
	end := min(off+int64(n), in.attr.Size)
	if lo := off % pageSize; end-off <= pageSize-lo {
		hi := lo + end - off
		pg := &in.pages[off/pageSize]
		pg.frozen = true
		return pg.bytes()[lo:hi:hi], nil
	}
	out := make([]byte, end-off)
	for done := 0; done < len(out); {
		at := off + int64(done)
		done += copy(out[done:], in.pages[at/pageSize].bytes()[at%pageSize:])
	}
	return out, nil
}

// WriteAt writes data to file ino at offset off, extending it as needed,
// and returns the resulting attributes. It copies data, which stays the
// caller's.
func (s *Store) WriteAt(ino uint64, off int64, data []byte) (Attr, error) {
	return s.write(ino, off, data, false)
}

// WriteFrozen is WriteAt for bytes under the frozen-payload rule
// (DESIGN.md §14), such as a decoded view of a delivered call image:
// nobody writes through them again. A span of data that starts a page and
// fills it, or ends the file, becomes the file's page, frozen, with no
// copy; the rest is copied.
func (s *Store) WriteFrozen(ino uint64, off int64, data []byte) (Attr, error) {
	return s.write(ino, off, data, true)
}

func (s *Store) write(ino uint64, off int64, data []byte, frozen bool) (Attr, error) {
	in, err := s.get(ino)
	if err != nil {
		return Attr{}, err
	}
	if in.attr.Type == TypeDirectory {
		return Attr{}, ErrIsDir
	}
	if off < 0 {
		return Attr{}, ErrInval
	}
	if end := off + int64(len(data)); end > in.attr.Size {
		if last := int64(len(in.pages)) - 1; frozen && off%pageSize == 0 && off <= last*pageSize {
			// The write keeps every page it reaches by reference, the
			// last one too, so the growth need not make it whole first.
			in.pages[last] = page{}
		}
		in.truncate(end)
	}
	for len(data) > 0 {
		i, lo := int(off/pageSize), int(off%pageSize)
		n := min(len(data), pageSize-lo)
		if frozen && lo == 0 && (n == pageSize || off+int64(n) == in.attr.Size) {
			in.pages[i] = page{b: data[:n:n], frozen: true}
		} else {
			copy(in.writable(i)[lo:], data[:n])
		}
		off += int64(n)
		data = data[n:]
	}
	now := s.clock()
	in.attr.Mtime = now
	in.attr.Ctime = now
	return s.GetAttr(ino)
}

// Truncate sets the file's size, discarding or zero-extending contents.
func (s *Store) Truncate(ino uint64, size int64) (Attr, error) {
	in, err := s.get(ino)
	if err != nil {
		return Attr{}, err
	}
	if in.attr.Type == TypeDirectory {
		return Attr{}, ErrIsDir
	}
	if size < 0 {
		return Attr{}, ErrInval
	}
	in.truncate(size)
	now := s.clock()
	in.attr.Mtime = now
	in.attr.Ctime = now
	return s.GetAttr(ino)
}

// SetMode changes the permission bits.
func (s *Store) SetMode(ino uint64, mode uint32) (Attr, error) {
	in, err := s.get(ino)
	if err != nil {
		return Attr{}, err
	}
	in.attr.Mode = mode
	in.attr.Ctime = s.clock()
	return s.GetAttr(ino)
}

// Link creates a hard link name in dir to the inode of src (nlink++).
func (s *Store) Link(dir uint64, name string, src uint64) (Attr, error) {
	if err := validName(name); err != nil {
		return Attr{}, err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	in, err := s.get(src)
	if err != nil {
		return Attr{}, err
	}
	if in.attr.Type == TypeDirectory {
		return Attr{}, ErrIsDir // no hard links to directories
	}
	if _, ok := d.entries[name]; ok {
		return Attr{}, fmt.Errorf("%w: %q", ErrExist, name)
	}
	d.entries[name] = src
	d.names = append(d.names, name)
	in.attr.Nlink++
	now := s.clock()
	in.attr.Ctime = now
	d.attr.Mtime = now
	d.attr.Ctime = now
	return s.GetAttr(src)
}

// Symlink creates a symbolic link name in dir pointing at target.
func (s *Store) Symlink(dir uint64, name, target string) (Attr, error) {
	if err := validName(name); err != nil {
		return Attr{}, err
	}
	d, err := s.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	if _, ok := d.entries[name]; ok {
		return Attr{}, fmt.Errorf("%w: %q", ErrExist, name)
	}
	in := s.alloc(TypeSymlink, 0o777)
	in.target = target
	in.attr.Size = int64(len(target))
	d.entries[name] = in.attr.Ino
	d.names = append(d.names, name)
	now := s.clock()
	d.attr.Mtime = now
	d.attr.Ctime = now
	return s.GetAttr(in.attr.Ino)
}

// Readlink returns the target of symlink ino.
func (s *Store) Readlink(ino uint64) (string, error) {
	in, err := s.get(ino)
	if err != nil {
		return "", err
	}
	if in.attr.Type != TypeSymlink {
		return "", ErrInval
	}
	return in.target, nil
}

// Readdir lists directory dir in creation order.
func (s *Store) Readdir(dir uint64) ([]Dirent, error) {
	d, err := s.getDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, 0, len(d.names))
	for _, name := range d.names {
		out = append(out, Dirent{Name: name, Ino: d.entries[name]})
	}
	return out, nil
}

// TotalBytes reports the sum of all regular file sizes (for statfs).
func (s *Store) TotalBytes() int64 {
	var total int64
	for _, in := range s.inodes {
		if in.attr.Type == TypeRegular {
			total += in.attr.Size
		}
	}
	return total
}
