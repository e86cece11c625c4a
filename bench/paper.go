package main

import (
	"fmt"
	"strings"
	"time"

	"spritelynfs/internal/client"
	"spritelynfs/internal/harness"
	"spritelynfs/internal/sim"
	"spritelynfs/internal/span"
	"spritelynfs/internal/stats"
	wl "spritelynfs/internal/workload"
)

// The paper workloads: one iteration builds a fresh single-client world
// per protocol (SNFS, then NFS; /tmp remote), populates it, and runs the
// benchmark's timed phases — the same sequence as harness.RunAndrew and
// harness.RunSort, taken apart here so set-up and the timed phases are
// clocked separately. At seed 1 the inputs are the paper's calibrated
// ones and the virtual results equal the harness's (Tables 5-1 and 5-3);
// other seeds perturb the input sizes by a few hundred bytes so the
// inputs come from the seed while the work stays comparable.

// seedStep maps a seed onto 16 small input perturbations, 0 at seed 1.
func seedStep(seed int64) int {
	s := int((seed - 1) % 16)
	if s < 0 {
		s += 16
	}
	return s
}

// paperProtos is the order every paper iteration runs the protocols in.
var paperProtos = []harness.Proto{harness.SNFS, harness.NFS}

func suffix(pr harness.Proto) string { return strings.ToLower(pr.String()) }

// paperUnit runs body once per protocol in a fresh world.
type paperUnit struct {
	pm harness.Params
	// body populates the world (untimed set-up), then calls timed with
	// the benchmark's timed phases, then verifies its outputs. It runs
	// inside the world's workload process.
	body func(p *sim.Proc, w *harness.World, timed func(fn func() error) error) (attempted int64, violations []string, err error)
}

func (u *paperUnit) iterate(tr *tracer, warm bool) (iteration, error) {
	it := iteration{virtual: map[string]float64{}, layer: map[string]float64{}}
	pm := u.pm
	pm.Spans = tr != nil
	root := tr.start(0, "iteration")
	defer tr.end(root)
	for _, pr := range paperProtos {
		sfx := suffix(pr)
		t0 := time.Now()
		sp := tr.start(root, "harness.Build/"+sfx)
		w := harness.Build(pr, true, pm)
		tr.end(sp)
		var ops *stats.Ops
		var elapsed sim.Duration
		err := w.Run(func(p *sim.Proc) error {
			attempted, violations, err := u.body(p, w, func(fn func() error) error {
				if tr != nil {
					w.EnableMetrics()
				}
				base := w.ClientOps().Clone()
				start := p.Now()
				it.setupS += time.Since(t0).Seconds()
				sp := tr.start(root, "workload.Run/"+sfx)
				var err error
				secs, allocs, mb := hostCost(func() { err = fn() })
				tr.end(sp)
				it.wallS += secs
				it.allocs += allocs
				it.allocMB += mb
				elapsed = p.Now().Sub(start)
				ops = w.ClientOps().Diff(base)
				return err
			})
			it.attempted += attempted
			for _, v := range violations {
				it.violations = append(it.violations, sfx+": "+v)
			}
			return err
		})
		if err != nil {
			return it, fmt.Errorf("%s: %w", pr, err)
		}
		it.ops += ops.Total()
		it.virtual["sim_elapsed_s_"+sfx] = elapsed.Seconds()
		it.virtual["sim_rpcs_"+sfx] = float64(ops.Total())
		if tr != nil {
			worldLedger(it.layer, sfx, w, ops, w.Spans.Summarize(0, 1))
		}
	}
	it.opSeconds = it.wallS
	return it, nil
}

// worldLedger reads one finished world's per-layer counters. The
// counters without a protocol suffix keep the SNFS world's value (SNFS
// runs first, so the NFS pass leaves them alone).
func worldLedger(out map[string]float64, sfx string, w *harness.World, ops *stats.Ops, sum *span.Summary) {
	for _, proc := range rpcProcs[sfx] {
		out["rpc.calls."+proc+"_"+sfx] = float64(ops.Get(proc))
	}
	if w.SNFSSrv != nil {
		out["rpc.calls.callback_snfs"] = float64(w.SNFSSrv.Ops().Get("callback"))
	}
	var cli *client.Base
	if w.SNFSCli != nil {
		cli = w.SNFSCli.Base
	} else {
		cli = w.NFSCli.Base
	}
	cs := cli.Cache().Stats()
	out["rpc.retransmits"] += float64(cli.Endpoint().Stats().Retransmits)
	if sum != nil {
		for _, k := range spanKinds {
			for _, c := range sum.Components {
				if c.Name == k.display {
					out[k.name+"_"+sfx] = c.Seconds
				}
			}
		}
	}
	out["server.cpu_util_"+sfx] = w.ServerCPUUtilization()
	out["disk.util_"+sfx] = w.SrvMedia.Disk().Utilization()
	out["simnet.link_util_"+sfx] = w.Net.LinkUtilization()
	if _, done := out["disk.writes"]; done {
		return
	}
	ds := w.ServerDiskStats()
	out["disk.writes"] = float64(ds.Writes)
	out["disk.reads"] = float64(ds.Reads)
	out["disk.gather_ratio"] = w.SrvMedia.Sched().Stats().GatherRatio()
	if cs.Hits+cs.Misses > 0 {
		out["cache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	out["cache.cancelled"] = float64(cs.Cancelled)
	out["simnet.bytes"] = float64(w.Net.Stats().Bytes)
}

func prepareAndrew(opt options) (unit, error) {
	pm := harness.Default()
	pm.Seed = opt.seed
	pm.Andrew.MaxFileSize += 32 * seedStep(opt.seed)
	if opt.quick {
		pm.Andrew.Dirs, pm.Andrew.FilesPerDir = 2, 3
	}
	cfg := pm.Andrew
	return &paperUnit{pm: pm, body: func(p *sim.Proc, w *harness.World, timed func(func() error) error) (int64, []string, error) {
		if err := wl.SetupAndrew(p, w.NS, cfg); err != nil {
			return 0, nil, err
		}
		// Let set-up's delayed writes drain so the disks start the timed
		// phases idle, as harness.RunAndrew does.
		p.Sleep(40 * sim.Second)
		var res wl.AndrewResult
		err := timed(func() (err error) {
			res, err = wl.RunAndrew(p, w.NS, cfg)
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		var bad []string
		for i, d := range res.Phase {
			if d <= 0 {
				bad = append(bad, fmt.Sprintf("phase %s did not run", wl.AndrewPhases[i]))
			}
		}
		// The Copy phase must have reproduced every source file. Sizes are
		// the server's, so SNFS's delayed writes are flushed first.
		w.NS.SyncAll(p)
		files := int64(0)
		dirs, err := w.NS.Readdir(p, cfg.SrcDir)
		if err != nil {
			return 0, nil, err
		}
		for _, d := range dirs {
			if !strings.HasPrefix(d.Name, "dir") {
				continue
			}
			ents, err := w.NS.Readdir(p, cfg.SrcDir+"/"+d.Name)
			if err != nil {
				return 0, nil, err
			}
			for _, e := range ents {
				src, err := w.NS.Stat(p, cfg.SrcDir+"/"+d.Name+"/"+e.Name)
				if err != nil {
					return 0, nil, err
				}
				dst, err := w.NS.Stat(p, cfg.DstDir+"/"+d.Name+"/"+e.Name)
				if err != nil {
					bad = append(bad, fmt.Sprintf("%s/%s missing from target tree: %v", d.Name, e.Name, err))
				} else if dst.Size != src.Size {
					bad = append(bad, fmt.Sprintf("%s/%s is %d bytes in target, %d in source", d.Name, e.Name, dst.Size, src.Size))
				}
				files++
			}
		}
		if want := int64(cfg.Dirs * cfg.FilesPerDir); files != want {
			bad = append(bad, fmt.Sprintf("source tree has %d files, want %d", files, want))
		}
		return files, bad, nil
	}}, nil
}

func prepareSort(opt options) (unit, error) {
	pm := harness.Default()
	pm.Seed = opt.seed
	size := pm.SortSizes[len(pm.SortSizes)-1] - 1024*seedStep(opt.seed)
	if opt.quick {
		size = pm.SortSizes[0]
	}
	cfg := wl.SortConfig{
		InputPath:  "/data/input.dat",
		TmpDir:     "/usr/tmp",
		OutputPath: "/data/output.dat",
		InputSize:  size,
		MemBuffer:  pm.SortMemBuffer,
		MergeOrder: pm.SortMergeOrder,
		CPUPerKB:   pm.SortCPUPerKB,
		ChunkSize:  pm.TransferSize,
	}
	return &paperUnit{pm: pm, body: func(p *sim.Proc, w *harness.World, timed func(func() error) error) (int64, []string, error) {
		if err := wl.SetupSort(p, w.NS, cfg); err != nil {
			return 0, nil, err
		}
		err := timed(func() error {
			_, err := wl.RunSort(p, w.NS, cfg)
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		var bad []string
		w.NS.SyncAll(p) // as above: the size checked is the server's
		out, err := w.NS.Stat(p, cfg.OutputPath)
		if err != nil {
			return 0, nil, err
		}
		if out.Size != int64(size) {
			bad = append(bad, fmt.Sprintf("sorted output is %d bytes, input was %d", out.Size, size))
		}
		return 1, bad, nil
	}}, nil
}
