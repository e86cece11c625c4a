package workload

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// SortConfig parameterizes the external-sort benchmark of §5.3: the Unix
// sort program sorting an input file through temporary run files in
// /usr/tmp, whose total volume grows faster than the input (Table 5-3's
// temp-storage column).
type SortConfig struct {
	// InputPath is the file to sort (on the data mount).
	InputPath string
	// TmpDir holds the run files (the mount under test).
	TmpDir string
	// OutputPath receives the sorted result.
	OutputPath string
	// InputSize is the input volume in bytes.
	InputSize int
	// MemBuffer is the in-core sort buffer: the initial run size.
	MemBuffer int
	// MergeOrder is the merge fan-in.
	MergeOrder int
	// CPUPerKB is comparison/copy compute per kilobyte processed in
	// each pass.
	CPUPerKB sim.Duration
	// ChunkSize is the application I/O unit.
	ChunkSize int
}

// SortResult reports the benchmark outcome.
type SortResult struct {
	Elapsed sim.Duration
	// ComputeTime is the client CPU time spent sorting/merging; the
	// paper observes that client CPU utilization (ComputeTime/Elapsed)
	// is higher under SNFS — I/O latency is NFS's bottleneck.
	ComputeTime sim.Duration
	// TempBytes is the total volume written to temporary files across
	// all passes (the paper's "temp storage" metric grows with it).
	TempBytes int64
	// Runs is the number of initial runs formed.
	Runs int
	// MergePasses counts merge levels performed.
	MergePasses int
}

// SetupSort writes the input file (not timed).
func SetupSort(p *sim.Proc, ns *vfs.Namespace, cfg SortConfig) error {
	if err := ns.WriteFile(p, cfg.InputPath, cfg.InputSize, cfg.ChunkSize); err != nil {
		return err
	}
	ns.SyncAll(p)
	return nil
}

// RunSort performs the external merge sort.
func RunSort(p *sim.Proc, ns *vfs.Namespace, cfg SortConfig) (SortResult, error) {
	var res SortResult
	start := p.Now()
	compute := func(bytes int) {
		d := sim.Duration(int64(cfg.CPUPerKB) * int64(bytes) / 1024)
		res.ComputeTime += d
		p.Sleep(d)
	}

	// Pass 0 — run formation: read the input a buffer at a time, sort
	// in core, write each run to a temp file.
	in, err := ns.Open(p, cfg.InputPath, vfs.ReadOnly, 0)
	if err != nil {
		return res, err
	}
	var runs []string
	var runSizes []int
	off := int64(0)
	seq := 0
	buf := chunkBuf(cfg.ChunkSize)
	for remaining := cfg.InputSize; remaining > 0; {
		n := cfg.MemBuffer
		if remaining < n {
			n = remaining
		}
		// Read one buffer.
		for got := 0; got < n; {
			c := len(buf)
			if n-got < c {
				c = n - got
			}
			m, err := in.ReadInto(p, buf[:c], off)
			if err != nil {
				in.Close(p)
				return res, err
			}
			if m == 0 {
				break
			}
			got += m
			off += int64(m)
		}
		compute(n)
		name := fmt.Sprintf("%s/st%04d", cfg.TmpDir, seq)
		seq++
		if err := ns.WriteFile(p, name, n, cfg.ChunkSize); err != nil {
			in.Close(p)
			return res, err
		}
		res.TempBytes += int64(n)
		runs = append(runs, name)
		runSizes = append(runSizes, n)
		remaining -= n
	}
	if err := in.Close(p); err != nil {
		return res, err
	}
	res.Runs = len(runs)

	// Merge passes: combine MergeOrder runs at a time until one
	// remains; the final merge writes the output file directly.
	for len(runs) > 1 {
		res.MergePasses++
		var nextRuns []string
		var nextSizes []int
		for i := 0; i < len(runs); i += cfg.MergeOrder {
			j := i + cfg.MergeOrder
			if j > len(runs) {
				j = len(runs)
			}
			group := runs[i:j]
			sizes := runSizes[i:j]
			total := 0
			for _, s := range sizes {
				total += s
			}
			final := len(runs) <= cfg.MergeOrder
			var outPath string
			if final {
				outPath = cfg.OutputPath
			} else {
				outPath = fmt.Sprintf("%s/st%04d", cfg.TmpDir, seq)
				seq++
			}
			if err := mergeGroup(p, ns, cfg, group, sizes, outPath, compute); err != nil {
				return res, err
			}
			if !final {
				res.TempBytes += int64(total)
			}
			// Merged inputs are deleted as soon as they are
			// consumed — the delayed-write cancellation shot.
			for _, r := range group {
				if err := ns.Remove(p, r); err != nil {
					return res, err
				}
			}
			nextRuns = append(nextRuns, outPath)
			nextSizes = append(nextSizes, total)
		}
		runs = nextRuns
		runSizes = nextSizes
		if len(runs) == 1 {
			break
		}
	}
	if len(runs) == 1 && runs[0] != cfg.OutputPath {
		// Single initial run: copy it to the output.
		if _, err := ns.CopyFile(p, runs[0], cfg.OutputPath, buf); err != nil {
			return res, err
		}
		if err := ns.Remove(p, runs[0]); err != nil {
			return res, err
		}
	}
	res.Elapsed = p.Now().Sub(start)
	return res, nil
}

// mergeGroup reads the group's runs round-robin a chunk at a time and
// writes the merged stream to outPath.
func mergeGroup(p *sim.Proc, ns *vfs.Namespace, cfg SortConfig, group []string, sizes []int, outPath string, compute func(int)) error {
	files := make([]vfs.File, len(group))
	offsets := make([]int64, len(group))
	for i, name := range group {
		f, err := ns.Open(p, name, vfs.ReadOnly, 0)
		if err != nil {
			return err
		}
		files[i] = f
	}
	out, err := ns.Open(p, outPath, vfs.WriteOnly|vfs.Create|vfs.Truncate, 0o644)
	if err != nil {
		for _, f := range files {
			f.Close(p)
		}
		return err
	}
	outOff := int64(0)
	remaining := make([]int, len(group))
	copy(remaining, sizes)
	active := len(group)
	// One buffer: each chunk is read into it and written out from it.
	buf := chunkBuf(cfg.ChunkSize)
	for active > 0 {
		for i := range files {
			if remaining[i] <= 0 {
				continue
			}
			c := len(buf)
			if remaining[i] < c {
				c = remaining[i]
			}
			n, err := files[i].ReadInto(p, buf[:c], offsets[i])
			if err != nil {
				closeAll(p, files, out)
				return err
			}
			if n == 0 {
				n = c // sparse temp files read as zeros
				clear(buf[:n])
			}
			offsets[i] += int64(n)
			remaining[i] -= n
			if remaining[i] <= 0 {
				active--
			}
			compute(n)
			if _, err := out.WriteAt(p, outOff, buf[:n]); err != nil {
				closeAll(p, files, out)
				return err
			}
			outOff += int64(n)
		}
	}
	return closeAll(p, files, out)
}

func closeAll(p *sim.Proc, files []vfs.File, out vfs.File) error {
	var err error
	for _, f := range files {
		if e := f.Close(p); e != nil && err == nil {
			err = e
		}
	}
	if e := out.Close(p); e != nil && err == nil {
		err = e
	}
	return err
}
