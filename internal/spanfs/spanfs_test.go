package spanfs

import (
	"testing"

	"spritelynfs/internal/proto"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/vfs"
)

// stubFS is a minimal vfs.FS: every call burns a fixed slice of
// simulated time (so root spans have nonzero duration) and succeeds.
type stubFS struct{ k *sim.Kernel }

func (s *stubFS) tick(p *sim.Proc) { p.Sleep(2 * sim.Millisecond) }

func (s *stubFS) Open(p *sim.Proc, path string, flags vfs.Flags, mode uint32) (vfs.File, error) {
	s.tick(p)
	return &stubFile{s}, nil
}
func (s *stubFS) Mkdir(p *sim.Proc, path string, mode uint32) error { s.tick(p); return nil }
func (s *stubFS) Remove(p *sim.Proc, path string) error             { s.tick(p); return nil }
func (s *stubFS) Rmdir(p *sim.Proc, path string) error              { s.tick(p); return nil }
func (s *stubFS) Rename(p *sim.Proc, oldpath, newpath string) error { s.tick(p); return nil }
func (s *stubFS) Stat(p *sim.Proc, path string) (proto.Fattr, error) {
	s.tick(p)
	return proto.Fattr{}, nil
}
func (s *stubFS) Readdir(p *sim.Proc, path string) ([]proto.DirEntry, error) {
	s.tick(p)
	return nil, nil
}
func (s *stubFS) Link(p *sim.Proc, oldpath, newpath string) error    { s.tick(p); return nil }
func (s *stubFS) Symlink(p *sim.Proc, target, linkpath string) error { s.tick(p); return nil }
func (s *stubFS) Readlink(p *sim.Proc, path string) (string, error)  { s.tick(p); return "", nil }
func (s *stubFS) SyncAll(p *sim.Proc)                                { s.tick(p) }

type stubFile struct{ fs *stubFS }

func (f *stubFile) ReadInto(p *sim.Proc, b []byte, off int64) (int, error) {
	f.fs.tick(p)
	return 0, nil
}
func (f *stubFile) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	return vfs.ReadAt(p, f, off, n)
}
func (f *stubFile) WriteAt(p *sim.Proc, off int64, data []byte) (int, error) {
	f.fs.tick(p)
	return len(data), nil
}
func (f *stubFile) Close(p *sim.Proc) error { f.fs.tick(p); return nil }
func (f *stubFile) Sync(p *sim.Proc) error  { f.fs.tick(p); return nil }
func (f *stubFile) Attr(p *sim.Proc) (proto.Fattr, error) {
	f.fs.tick(p)
	return proto.Fattr{}, nil
}

// TestWrapNilRecorder: the off configuration returns the inner FS
// itself, not a wrapper — zero cost, not just nil-check cost.
func TestWrapNilRecorder(t *testing.T) {
	inner := &stubFS{}
	if got := WrapFS(nil, "client", inner); got != vfs.FS(inner) {
		t.Fatalf("WrapFS(nil) = %T, want the inner FS unchanged", got)
	}
}

// TestRootSpansPerSyscall drives each wrapped operation once and checks
// one Syscall-rooted trace per call, named and timed.
func TestRootSpansPerSyscall(t *testing.T) {
	k := sim.NewKernel(1)
	r := span.NewRecorder(k.Now, 64)
	fs := WrapFS(r, "clientX", &stubFS{k: k})
	k.Go("client", func(p *sim.Proc) {
		if err := fs.Mkdir(p, "/d", 0o755); err != nil {
			t.Error(err)
		}
		f, err := fs.Open(p, "/d/f", vfs.Flags(0), 0o644)
		if err != nil {
			t.Error(err)
		}
		if _, err := f.WriteAt(p, 0, []byte("x")); err != nil {
			t.Error(err)
		}
		if _, err := f.ReadInto(p, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
		if err := f.Close(p); err != nil {
			t.Error(err)
		}
		if _, err := fs.Stat(p, "/d/f"); err != nil {
			t.Error(err)
		}
	})
	k.Run()

	agg := r.Breakdown()
	if agg.Ops != 6 {
		t.Fatalf("ops = %d, want 6 (mkdir, open, write, read, close, stat)", agg.Ops)
	}
	if want := 6 * 2 * sim.Millisecond; agg.RootTime != want {
		t.Errorf("root time = %v, want %v", agg.RootTime, want)
	}
	// All time is Syscall self time: the stub has no instrumented layers.
	if agg.Cats[span.Syscall] != agg.RootTime {
		t.Errorf("syscall cat = %v, want all of %v", agg.Cats[span.Syscall], agg.RootTime)
	}
	names := map[string]bool{}
	for _, so := range r.SlowOps() {
		if so.Host != "clientX" {
			t.Errorf("host = %q, want clientX", so.Host)
		}
		names[so.Name] = true
	}
	for _, want := range []string{"mkdir", "open", "write", "read", "close", "stat"} {
		if !names[want] {
			t.Errorf("no captured op named %q (got %v)", want, names)
		}
	}
}
