// Package workload implements the benchmark programs of the paper's
// evaluation: the (modified, Ousterhout-portable) Andrew benchmark of
// §5.2, the external-sort benchmark of §5.3, and the §5.1 micro-patterns
// (read-quickly, read-slowly, temp-file churn, popular-header reread).
//
// Workloads run against a vfs.Namespace, so the same code measures the
// local-disk, NFS, and SNFS configurations; application computation is
// modelled as simulated CPU time (the portable compiler always generates
// code for a fixed target architecture, so its cost is configuration-
// independent, exactly the property Ousterhout's variant was built for).
package workload

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// AndrewConfig parameterizes the benchmark tree and the modelled
// compiler.
type AndrewConfig struct {
	// SrcDir is the read-only source subtree (on the data mount).
	SrcDir string
	// DstDir is the target subtree the benchmark constructs.
	DstDir string
	// TmpDir holds compiler intermediates (local or remote /tmp —
	// the configuration axis of Table 5-1).
	TmpDir string

	// Dirs and FilesPerDir shape the subtree (the original input is
	// about 70 files in a handful of directories, ~200 kbytes).
	Dirs        int
	FilesPerDir int
	// MinFileSize/MaxFileSize bound the deterministic pseudo-random
	// source file sizes.
	MinFileSize int
	MaxFileSize int
	// Headers is the number of shared include files; every compile
	// reads HeadersPerFile of them (header 0 is the popular one).
	Headers        int
	HeaderSize     int
	HeadersPerFile int

	// BinSizes are the compiler pass binaries (cpp, ccom, as), which
	// live on the data file system ("the 'compiler' programs were on
	// the same file system as the data", §5.2) and are read at each
	// exec; LinkerSize is the ld binary read once per link.
	BinSizes   []int
	LinkerSize int

	// CPU, when set, is the client's (single) processor: compute time
	// is serialized through it, so concurrent compiles contend — the
	// §5.1 parallel-make regime. When nil, compute is a pure delay
	// (equivalent for a single process).
	CPU *sim.Resource

	// CompileCPUPerKB is compute time per kilobyte of source compiled.
	CompileCPUPerKB sim.Duration
	// LinkCPUPerKB is compute time per kilobyte linked.
	LinkCPUPerKB sim.Duration
	// TmpFactor and ObjFactor size the intermediate and object files
	// relative to the source.
	TmpFactor float64
	ObjFactor float64
	// ChunkSize is the application I/O unit.
	ChunkSize int
}

// DefaultAndrew returns the calibrated configuration.
func DefaultAndrew() AndrewConfig {
	return AndrewConfig{
		SrcDir:          "/data/src",
		DstDir:          "/data/target",
		TmpDir:          "/tmp",
		Dirs:            5,
		FilesPerDir:     14,
		MinFileSize:     1 * 1024,
		MaxFileSize:     6 * 1024,
		Headers:         8,
		HeaderSize:      4 * 1024,
		HeadersPerFile:  4,
		BinSizes:        []int{24 * 1024, 48 * 1024, 24 * 1024},
		LinkerSize:      32 * 1024,
		CompileCPUPerKB: 350 * sim.Millisecond,
		LinkCPUPerKB:    40 * sim.Millisecond,
		TmpFactor:       4.0,
		ObjFactor:       1.0,
		ChunkSize:       8 * 1024,
	}
}

// AndrewPhases names the five phases.
var AndrewPhases = [5]string{"MakeDir", "Copy", "ScanDir", "ReadAll", "Make"}

// AndrewResult reports per-phase and total elapsed simulated time.
type AndrewResult struct {
	Phase [5]sim.Duration
	Total sim.Duration
}

// fileSize returns the deterministic size of file f in dir d.
func (cfg *AndrewConfig) fileSize(d, f int) int {
	span := cfg.MaxFileSize - cfg.MinFileSize + 1
	// A fixed mixing function: reproducible across runs and protocols.
	h := (d*2654435761 + f*40503) % span
	if h < 0 {
		h += span
	}
	return cfg.MinFileSize + h
}

func (cfg *AndrewConfig) dirName(root string, d int) string {
	return fmt.Sprintf("%s/dir%02d", root, d)
}

func (cfg *AndrewConfig) fileName(root string, d, f int) string {
	return fmt.Sprintf("%s/dir%02d/f%02d.c", root, d, f)
}

func (cfg *AndrewConfig) headerName(h int) string {
	return fmt.Sprintf("%s/include/h%02d.h", cfg.SrcDir, h)
}

func (cfg *AndrewConfig) binName(i int) string {
	return fmt.Sprintf("%s/bin/pass%d", cfg.SrcDir, i)
}

func (cfg *AndrewConfig) linkerName() string {
	return cfg.SrcDir + "/bin/ld"
}

// SetupAndrew builds the source subtree (not part of the timed run).
func SetupAndrew(p *sim.Proc, ns *vfs.Namespace, cfg AndrewConfig) error {
	if err := ns.Mkdir(p, cfg.SrcDir, 0o755); err != nil {
		return err
	}
	if err := ns.Mkdir(p, cfg.SrcDir+"/include", 0o755); err != nil {
		return err
	}
	for h := 0; h < cfg.Headers; h++ {
		if err := ns.WriteFile(p, cfg.headerName(h), cfg.HeaderSize, cfg.ChunkSize); err != nil {
			return err
		}
	}
	if err := ns.Mkdir(p, cfg.SrcDir+"/bin", 0o755); err != nil {
		return err
	}
	for i, size := range cfg.BinSizes {
		if err := ns.WriteFile(p, cfg.binName(i), size, cfg.ChunkSize); err != nil {
			return err
		}
	}
	if err := ns.WriteFile(p, cfg.linkerName(), cfg.LinkerSize, cfg.ChunkSize); err != nil {
		return err
	}
	for d := 0; d < cfg.Dirs; d++ {
		if err := ns.Mkdir(p, cfg.dirName(cfg.SrcDir, d), 0o755); err != nil {
			return err
		}
		for f := 0; f < cfg.FilesPerDir; f++ {
			if err := ns.WriteFile(p, cfg.fileName(cfg.SrcDir, d, f), cfg.fileSize(d, f), cfg.ChunkSize); err != nil {
				return err
			}
		}
	}
	// Let pending delayed writes from setup drain so the timed phases
	// start clean.
	ns.SyncAll(p)
	return nil
}

// RunAndrew executes the five phases against ns and returns their
// elapsed times.
func RunAndrew(p *sim.Proc, ns *vfs.Namespace, cfg AndrewConfig) (AndrewResult, error) {
	var res AndrewResult
	start := p.Now()
	mark := start
	// One read buffer serves every read of the run, as a process reuses
	// its own buffer across read(2) calls.
	buf := chunkBuf(cfg.ChunkSize)

	phase := func(i int, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("andrew %s: %w", AndrewPhases[i], err)
		}
		now := p.Now()
		res.Phase[i] = now.Sub(mark)
		mark = now
		return nil
	}

	// Phase 1 — MakeDir: construct a target subtree identical in
	// structure to the source subtree.
	err := phase(0, func() error {
		if err := ns.Mkdir(p, cfg.DstDir, 0o755); err != nil {
			return err
		}
		for d := 0; d < cfg.Dirs; d++ {
			if err := ns.Mkdir(p, cfg.dirName(cfg.DstDir, d), 0o755); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Phase 2 — Copy: every file from source to target.
	err = phase(1, func() error {
		for d := 0; d < cfg.Dirs; d++ {
			for f := 0; f < cfg.FilesPerDir; f++ {
				src := cfg.fileName(cfg.SrcDir, d, f)
				dst := cfg.fileName(cfg.DstDir, d, f)
				if _, err := ns.CopyFile(p, src, dst, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Phase 3 — ScanDir: recursively traverse the target subtree and
	// examine the status of every file without reading contents.
	err = phase(2, func() error {
		if _, err := ns.Readdir(p, cfg.DstDir); err != nil {
			return err
		}
		for d := 0; d < cfg.Dirs; d++ {
			dir := cfg.dirName(cfg.DstDir, d)
			ents, err := ns.Readdir(p, dir)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if _, err := ns.Stat(p, dir+"/"+e.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Phase 4 — ReadAll: scan every byte of every file once.
	err = phase(3, func() error {
		for d := 0; d < cfg.Dirs; d++ {
			for f := 0; f < cfg.FilesPerDir; f++ {
				if _, err := ns.ReadFile(p, cfg.fileName(cfg.DstDir, d, f), buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Phase 5 — Make: compile and link everything. The modelled
	// portable compiler is the classic Unix pipeline: cpp reads the
	// source and its headers and writes a preprocessed .i into /tmp;
	// ccom reads the .i and writes assembly (.s, TmpFactor × source)
	// into /tmp; as reads the .s and writes the object next to the
	// source. Both temporaries are deleted as soon as they are
	// consumed — the short-lived /tmp traffic the write policies
	// differ most on. The final link reads every object and writes one
	// executable.
	err = phase(4, func() error {
		objTotal := 0
		for d := 0; d < cfg.Dirs; d++ {
			for f := 0; f < cfg.FilesPerDir; f++ {
				objSize, err := cfg.CompileOne(p, ns, d, f, buf)
				if err != nil {
					return err
				}
				objTotal += objSize
			}
		}
		// Link: exec ld, read every object, compute, write the
		// executable.
		if _, err := ns.ReadFile(p, cfg.linkerName(), buf); err != nil {
			return err
		}
		for d := 0; d < cfg.Dirs; d++ {
			for f := 0; f < cfg.FilesPerDir; f++ {
				obj := fmt.Sprintf("%s/dir%02d/f%02d.o", cfg.DstDir, d, f)
				if _, err := ns.ReadFile(p, obj, buf); err != nil {
					return err
				}
			}
		}
		p.Sleep(sim.Duration(int64(cfg.LinkCPUPerKB) * int64(objTotal) / 1024))
		return ns.WriteFile(p, cfg.DstDir+"/a.out", objTotal, cfg.ChunkSize)
	})
	if err != nil {
		return res, err
	}

	res.Total = p.Now().Sub(start)
	return res, nil
}

// CompileOne runs the modelled compiler pipeline for one source file
// (cpp: source+headers -> /tmp .i; ccom: .i -> /tmp .s; as: .s -> .o)
// and returns the object size, reading through buf, the caller's. It is
// the unit the parallel-make experiment fans out.
func (cfg *AndrewConfig) CompileOne(p *sim.Proc, ns *vfs.Namespace, d, f int, buf []byte) (int, error) {
	size := cfg.fileSize(d, f)
	cpu := func(frac float64) {
		d := sim.Duration(frac * float64(cfg.CompileCPUPerKB) * float64(size) / 1024)
		if cfg.CPU != nil {
			cfg.CPU.Use(p, d)
		} else {
			p.Sleep(d)
		}
	}
	exec := func(pass int) error {
		if pass >= len(cfg.BinSizes) {
			return nil
		}
		_, err := ns.ReadFile(p, cfg.binName(pass), buf)
		return err
	}
	// cpp: exec the pass, read source + headers, write the .i.
	if err := exec(0); err != nil {
		return 0, err
	}
	if _, err := ns.ReadFile(p, cfg.fileName(cfg.DstDir, d, f), buf); err != nil {
		return 0, err
	}
	headerBytes := 0
	for i := 0; i < cfg.HeadersPerFile; i++ {
		h := 0 // header 0 is read by every compile
		if i > 0 {
			h = (d*cfg.FilesPerDir + f*i) % cfg.Headers
		}
		if _, err := ns.ReadFile(p, cfg.headerName(h), buf); err != nil {
			return 0, err
		}
		headerBytes += cfg.HeaderSize
	}
	cpu(0.2)
	tmpI := fmt.Sprintf("%s/cpp%02d%02d.i", cfg.TmpDir, d, f)
	if err := ns.WriteFile(p, tmpI, size+headerBytes, cfg.ChunkSize); err != nil {
		return 0, err
	}
	// ccom: exec, read the .i, compute, write the .s.
	if err := exec(1); err != nil {
		return 0, err
	}
	if _, err := ns.ReadFile(p, tmpI, buf); err != nil {
		return 0, err
	}
	cpu(0.6)
	tmpS := fmt.Sprintf("%s/ccom%02d%02d.s", cfg.TmpDir, d, f)
	if err := ns.WriteFile(p, tmpS, int(float64(size)*cfg.TmpFactor), cfg.ChunkSize); err != nil {
		return 0, err
	}
	if err := ns.Remove(p, tmpI); err != nil {
		return 0, err
	}
	// as: exec, read the .s, write the .o.
	if err := exec(2); err != nil {
		return 0, err
	}
	if _, err := ns.ReadFile(p, tmpS, buf); err != nil {
		return 0, err
	}
	cpu(0.2)
	objSize := int(float64(size) * cfg.ObjFactor)
	obj := fmt.Sprintf("%s/dir%02d/f%02d.o", cfg.DstDir, d, f)
	if err := ns.WriteFile(p, obj, objSize, cfg.ChunkSize); err != nil {
		return 0, err
	}
	if err := ns.Remove(p, tmpS); err != nil {
		return 0, err
	}
	return objSize, nil
}

// chunkBuf returns a read buffer of chunk bytes, 8 KiB when chunk is not
// positive.
func chunkBuf(chunk int) []byte {
	if chunk <= 0 {
		chunk = 8192
	}
	return make([]byte, chunk)
}

// ParallelMake runs the Make phase's compiles with nprocs concurrent
// processes on the client ("make -j"), exploring §5.1's observation that
// SNFS gains most when a single job alternates computation with I/O and
// "less such I/O parallelism is available if many applications are
// running in parallel on the client". The target tree and /tmp files must
// exist (run RunAndrew through at least Copy, or SetupAndrew + MakeDir +
// Copy). It returns the elapsed time of the compile fan-out (the link is
// omitted: it is inherently serial).
func ParallelMake(p *sim.Proc, ns *vfs.Namespace, cfg AndrewConfig, nprocs int) (sim.Duration, error) {
	if nprocs < 1 {
		nprocs = 1
	}
	type job struct{ d, f int }
	jobs := make([]job, 0, cfg.Dirs*cfg.FilesPerDir)
	for d := 0; d < cfg.Dirs; d++ {
		for f := 0; f < cfg.FilesPerDir; f++ {
			jobs = append(jobs, job{d, f})
		}
	}
	k := p.Kernel()
	queue := sim.NewQueue[job](k)
	for _, j := range jobs {
		queue.Put(j)
	}
	start := p.Now()
	var wg sim.WaitGroup
	wg.Add(nprocs)
	errs := make([]error, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		k.Go(fmt.Sprintf("make-j%d", i), func(wp *sim.Proc) {
			defer wg.Done()
			buf := chunkBuf(cfg.ChunkSize) // each worker reads through its own
			for {
				j, ok := queue.TryGet()
				if !ok {
					return
				}
				if _, err := cfg.CompileOne(wp, ns, j.d, j.f, buf); err != nil {
					errs[i] = err
					return
				}
			}
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return p.Now().Sub(start), nil
}
