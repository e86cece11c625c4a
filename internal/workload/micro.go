package workload

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// ReadQuickly opens a file, reads it straight through, and closes — the
// §5.1 pattern where NFS needs one fewer RPC than SNFS.
func ReadQuickly(p *sim.Proc, ns *vfs.Namespace, path string, chunk int) error {
	_, err := ns.ReadFile(p, path, chunkBuf(chunk))
	return err
}

// ReadSlowly holds the file open and reads it over the course of total
// simulated time (text-editor style) — the pattern where NFS's periodic
// consistency probes erase its advantage.
func ReadSlowly(p *sim.Proc, ns *vfs.Namespace, path string, chunk int, total sim.Duration, steps int) error {
	f, err := ns.Open(p, path, vfs.ReadOnly, 0)
	if err != nil {
		return err
	}
	defer f.Close(p)
	if steps < 1 {
		steps = 1
	}
	pause := total / sim.Duration(steps)
	buf := chunkBuf(chunk)
	var off int64
	for i := 0; i < steps; i++ {
		n, err := f.ReadInto(p, buf, off)
		if err != nil {
			return err
		}
		off += int64(n)
		if n < len(buf) {
			off = 0 // wrap: editors re-read
		}
		p.Sleep(pause)
	}
	return nil
}

// TempFileChurn creates, writes, reads, and deletes n short-lived
// temporary files — the behaviour delayed write-back turns into zero
// server writes (§4.2.3).
func TempFileChurn(p *sim.Proc, ns *vfs.Namespace, dir string, n, size, chunk int) error {
	buf := chunkBuf(chunk)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%s/t%04d", dir, i)
		if err := ns.WriteFile(p, path, size, chunk); err != nil {
			return err
		}
		if _, err := ns.ReadFile(p, path, buf); err != nil {
			return err
		}
		if err := ns.Remove(p, path); err != nil {
			return err
		}
	}
	return nil
}

// PopularHeader re-opens and re-reads one file n times over a stretch of
// time — the pattern §6.2's delayed close converts to local reopens.
func PopularHeader(p *sim.Proc, ns *vfs.Namespace, path string, n, chunk int, pause sim.Duration) error {
	buf := chunkBuf(chunk)
	for i := 0; i < n; i++ {
		if _, err := ns.ReadFile(p, path, buf); err != nil {
			return err
		}
		p.Sleep(pause)
	}
	return nil
}
