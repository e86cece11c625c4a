package workload

import (
	"testing"

	"spritelynfs/internal/disk"
	"spritelynfs/internal/localfs"
	"spritelynfs/internal/localmount"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/vfs"
)

// localWorld builds a purely local namespace for workload mechanics
// tests (cheap and protocol-independent).
func localWorld(k *sim.Kernel) *vfs.Namespace {
	st := localfs.NewStore(k.Now, 4096)
	media := localfs.NewMedia(st, disk.New(k, "d", disk.Params{}), 1, 0)
	fs := localmount.New(k, media)
	ns := &vfs.Namespace{}
	ns.Mount("/", fs)
	return ns
}

func run(t *testing.T, fn func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel(1)
	ns := localWorld(k)
	k.Go("t", func(p *sim.Proc) {
		defer k.Stop()
		if err := ns.Mkdir(p, "/data", 0o755); err != nil {
			t.Errorf("mkdir /data: %v", err)
			return
		}
		if err := ns.Mkdir(p, "/tmp", 0o755); err != nil {
			t.Errorf("mkdir /tmp: %v", err)
			return
		}
		if err := ns.Mkdir(p, "/usr", 0o755); err != nil {
			t.Errorf("mkdir /usr: %v", err)
			return
		}
		if err := ns.Mkdir(p, "/usr/tmp", 0o755); err != nil {
			t.Errorf("mkdir /usr/tmp: %v", err)
			return
		}
		fn(k, ns, p)
	})
	k.Run()
}

func smallAndrew() AndrewConfig {
	cfg := DefaultAndrew()
	cfg.Dirs = 2
	cfg.FilesPerDir = 3
	return cfg
}

func TestAndrewRunsAllPhases(t *testing.T) {
	run(t, func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc) {
		cfg := smallAndrew()
		if err := SetupAndrew(p, ns, cfg); err != nil {
			t.Fatalf("setup: %v", err)
		}
		res, err := RunAndrew(p, ns, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var sum sim.Duration
		for i, d := range res.Phase {
			if d < 0 {
				t.Errorf("phase %s negative: %v", AndrewPhases[i], d)
			}
			sum += d
		}
		if res.Total != sum {
			t.Errorf("total %v != sum of phases %v", res.Total, sum)
		}
		if res.Phase[4] < res.Phase[0] {
			t.Error("Make should dominate MakeDir")
		}
		// The target subtree exists and matches the source structure.
		ents, err := ns.Readdir(p, cfg.DstDir)
		if err != nil || len(ents) != cfg.Dirs+1 { // dirs + a.out
			t.Errorf("target tree: %d entries, %v", len(ents), err)
		}
		// Temporaries were cleaned up.
		tmps, err := ns.Readdir(p, cfg.TmpDir)
		if err != nil || len(tmps) != 0 {
			t.Errorf("leftover temps: %v, %v", tmps, err)
		}
		// Objects exist next to sources.
		if _, err := ns.Stat(p, cfg.DstDir+"/dir00/f00.o"); err != nil {
			t.Errorf("missing object file: %v", err)
		}
	})
}

func TestAndrewFileSizesDeterministicAndBounded(t *testing.T) {
	cfg := DefaultAndrew()
	for d := 0; d < cfg.Dirs; d++ {
		for f := 0; f < cfg.FilesPerDir; f++ {
			s1, s2 := cfg.fileSize(d, f), cfg.fileSize(d, f)
			if s1 != s2 {
				t.Fatal("fileSize not deterministic")
			}
			if s1 < cfg.MinFileSize || s1 > cfg.MaxFileSize {
				t.Fatalf("fileSize(%d,%d) = %d out of bounds", d, f, s1)
			}
		}
	}
}

func TestSortProducesOutputAndCleansTemps(t *testing.T) {
	run(t, func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc) {
		cfg := sortConfig(300 * 1024)
		if err := SetupSort(p, ns, cfg); err != nil {
			t.Fatalf("setup: %v", err)
		}
		res, err := RunSort(p, ns, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		attr, err := ns.Stat(p, cfg.OutputPath)
		if err != nil || attr.Size != int64(cfg.InputSize) {
			t.Errorf("output size %d, want %d (%v)", attr.Size, cfg.InputSize, err)
		}
		tmps, err := ns.Readdir(p, cfg.TmpDir)
		if err != nil || len(tmps) != 0 {
			t.Errorf("leftover temps: %v", tmps)
		}
		wantRuns := (cfg.InputSize + cfg.MemBuffer - 1) / cfg.MemBuffer
		if res.Runs != wantRuns {
			t.Errorf("runs %d, want %d", res.Runs, wantRuns)
		}
		if res.TempBytes < int64(cfg.InputSize) {
			t.Errorf("temp bytes %d below input size", res.TempBytes)
		}
	})
}

func TestSortTempGrowsFasterThanInput(t *testing.T) {
	// The paper's Table 5-3 property: temp storage grows faster than
	// the input because larger inputs need more merge passes.
	var ratios []float64
	for _, size := range []int{281 * 1024, 1408 * 1024, 2816 * 1024} {
		run(t, func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc) {
			cfg := sortConfig(size)
			if err := SetupSort(p, ns, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := RunSort(p, ns, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ratios = append(ratios, float64(res.TempBytes)/float64(size))
		})
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1] {
			t.Errorf("temp/input ratios not nondecreasing: %v", ratios)
		}
	}
	if ratios[len(ratios)-1] < 2 {
		t.Errorf("largest input ratio %.2f, want >= 2 (multiple merge passes)", ratios[len(ratios)-1])
	}
}

func TestSortSingleRunInput(t *testing.T) {
	// Input smaller than the buffer: one run, copied to output.
	run(t, func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc) {
		cfg := sortConfig(50 * 1024)
		if err := SetupSort(p, ns, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := RunSort(p, ns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs != 1 || res.MergePasses != 0 {
			t.Errorf("runs=%d passes=%d", res.Runs, res.MergePasses)
		}
		attr, err := ns.Stat(p, cfg.OutputPath)
		if err != nil || attr.Size != int64(cfg.InputSize) {
			t.Errorf("output %d, %v", attr.Size, err)
		}
	})
}

func TestMicroPatternsRun(t *testing.T) {
	run(t, func(k *sim.Kernel, ns *vfs.Namespace, p *sim.Proc) {
		if err := ns.WriteFile(p, "/data/f", 16*1024, 8192); err != nil {
			t.Fatal(err)
		}
		if err := ReadQuickly(p, ns, "/data/f", 8192); err != nil {
			t.Errorf("ReadQuickly: %v", err)
		}
		if err := ReadSlowly(p, ns, "/data/f", 8192, 10*sim.Second, 5); err != nil {
			t.Errorf("ReadSlowly: %v", err)
		}
		if err := TempFileChurn(p, ns, "/usr/tmp", 3, 8192, 8192); err != nil {
			t.Errorf("TempFileChurn: %v", err)
		}
		if err := PopularHeader(p, ns, "/data/f", 3, 8192, sim.Second); err != nil {
			t.Errorf("PopularHeader: %v", err)
		}
		// Temp churn cleaned up after itself.
		ents, _ := ns.Readdir(p, "/usr/tmp")
		if len(ents) != 0 {
			t.Errorf("temp churn left %v", ents)
		}
	})
}

// sortConfig is a sort over one input size, shaped as Table 5-3 runs it.
func sortConfig(inputSize int) SortConfig {
	return SortConfig{
		InputPath:  "/data/input.dat",
		TmpDir:     "/usr/tmp",
		OutputPath: "/data/output.dat",
		InputSize:  inputSize,
		MemBuffer:  128 * 1024,
		MergeOrder: 4,
		CPUPerKB:   3 * sim.Millisecond,
		ChunkSize:  8 * 1024,
	}
}

// TestGenResetDrawsNewGenStream: a Gen reset to (seed, client), after
// drawing another client's stream, draws the same 1,000 ops as a fresh
// NewGen(seed, client) — think times, kinds, Zipf ranks and private
// serials alike.
func TestGenResetDrawsNewGenStream(t *testing.T) {
	cfg := GenConfig{SharedFiles: 400, ZipfS: 1.2, ZipfV: 1, ReadFrac: 0.7, SharedWriteFrac: 0.5, ThinkMean: 30 * sim.Second}
	g := NewGen(99, 5, cfg)
	for _, sc := range []struct {
		seed   int64
		client int
	}{{1, 0}, {1, 1}, {1, 999}, {7, 0}, {7, 3}, {-3, 12}} {
		for i := 0; i < 37; i++ {
			g.Next() // leave the source and the private serial mid-stream
		}
		g.Reset(sc.seed, sc.client)
		fresh := NewGen(sc.seed, sc.client, cfg)
		for i := 0; i < 1000; i++ {
			if got, want := g.Next(), fresh.Next(); got != want {
				t.Fatalf("seed %d client %d op %d: reset drew %v, NewGen %v", sc.seed, sc.client, i, got, want)
			}
		}
	}
}
