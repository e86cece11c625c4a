package harness

import (
	"fmt"

	"spritelynfs/internal/sim"
	"spritelynfs/internal/stats"
	"spritelynfs/internal/vfs"
	"spritelynfs/internal/workload"
)

// MicroBenchmarks measures the §5.1 factor analysis: per-pattern RPC
// counts for NFS vs SNFS (read-quickly, read-slowly, temp-file churn).
func MicroBenchmarks(pm Params) (*stats.Table, error) {
	t := stats.NewTable("§5.1 micro-patterns: client RPCs per pattern",
		"Pattern", "NFS", "SNFS", "Note")

	type pattern struct {
		name string
		note string
		cold bool // drop the client cache before the pattern
		run  func(w *World, p *sim.Proc) error
	}
	patterns := []pattern{
		{
			name: "read-quickly (open, read 16k, close)",
			note: "NFS uses one fewer RPC",
			cold: true,
			run: func(w *World, p *sim.Proc) error {
				return workload.ReadQuickly(p, w.NS, "/data/f.dat", pm.TransferSize)
			},
		},
		{
			name: "read-slowly (held open 60s, probing)",
			note: "NFS probes erase its edge",
			cold: true,
			run: func(w *World, p *sim.Proc) error {
				return workload.ReadSlowly(p, w.NS, "/data/f.dat", pm.TransferSize, 60*sim.Second, 20)
			},
		},
		{
			name: "temp churn (20 files x 16k, deleted)",
			note: "SNFS cancels the writes",
			run: func(w *World, p *sim.Proc) error {
				return workload.TempFileChurn(p, w.NS, "/usr/tmp", 20, 16*1024, pm.TransferSize)
			},
		},
		{
			name: "popular header (30 rereads)",
			note: "see ablation for delayed-close",
			run: func(w *World, p *sim.Proc) error {
				return workload.PopularHeader(p, w.NS, "/data/f.dat", 30, pm.TransferSize, sim.Second)
			},
		},
	}

	for _, pat := range patterns {
		var counts [2]int64
		for i, pr := range []Proto{NFS, SNFS} {
			w := Build(pr, true, pm)
			err := w.Run(func(p *sim.Proc) error {
				if err := w.NS.WriteFile(p, "/data/f.dat", 16*1024, pm.TransferSize); err != nil {
					return err
				}
				w.NS.SyncAll(p)
				if pat.cold {
					w.InvalidateClientCache()
				}
				base := w.ClientOps().Clone()
				if err := pat.run(w, p); err != nil {
					return err
				}
				counts[i] = w.ClientOps().Diff(base).Total()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("micro %q %s: %w", pat.name, pr, err)
			}
		}
		t.AddRow(pat.name, fmt.Sprintf("%d", counts[0]), fmt.Sprintf("%d", counts[1]), pat.note)
	}
	return t, nil
}

// Ablations measures the design choices DESIGN.md calls out:
//   - delayed close (§6.2) on the popular-header pattern;
//   - the Sprite age-based write-back policy vs the traditional
//     flush-everything sync;
//   - the NFS invalidate-on-close bug's contribution to read traffic;
//   - read-ahead on sequential reads.
func Ablations(pm Params) (*stats.Table, error) {
	t := stats.NewTable("Ablations", "Experiment", "Variant", "Metric", "Value")

	// 1. Delayed close on the popular-header pattern.
	for _, dc := range []bool{false, true} {
		pmv := pm
		pmv.SNFS.DelayedClose = dc
		w := Build(SNFS, true, pmv)
		var opens, closes int64
		err := w.Run(func(p *sim.Proc) error {
			if err := w.NS.WriteFile(p, "/data/hdr.h", 8*1024, pm.TransferSize); err != nil {
				return err
			}
			w.NS.SyncAll(p)
			base := w.ClientOps().Clone()
			if err := workload.PopularHeader(p, w.NS, "/data/hdr.h", 30, pm.TransferSize, sim.Second); err != nil {
				return err
			}
			d := w.ClientOps().Diff(base)
			opens, closes = d.Get("open"), d.Get("close")
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("delayed close (§6.2), 30 rereads",
			fmt.Sprintf("delayedClose=%v", dc),
			"open+close RPCs", fmt.Sprintf("%d", opens+closes))
	}

	// 2. Write-back policy: traditional sync-all vs Sprite age-based,
	// on a temp-churn workload with files living ~45 s.
	for _, aged := range []bool{false, true} {
		pmv := pm
		pmv.SNFS.AgeBased = aged
		w := Build(SNFS, true, pmv)
		var writes int64
		err := w.Run(func(p *sim.Proc) error {
			base := w.ClientOps().Clone()
			for i := 0; i < 6; i++ {
				path := fmt.Sprintf("/usr/tmp/t%d", i)
				if err := w.NS.WriteFile(p, path, 64*1024, pm.TransferSize); err != nil {
					return err
				}
				p.Sleep(45 * sim.Second)
				if err := w.NS.Remove(p, path); err != nil {
					return err
				}
			}
			writes = w.ClientOps().Diff(base).Get("write")
			return nil
		})
		if err != nil {
			return nil, err
		}
		policy := "flush-all (Unix)"
		if aged {
			policy = "age-based (Sprite)"
		}
		t.AddRow("write-back policy, 45s-lived temps", policy,
			"write RPCs", fmt.Sprintf("%d", writes))
	}

	// 3. The invalidate-on-close bug: NFS read RPCs on write-close-
	// reread.
	for _, bug := range []bool{false, true} {
		pmv := pm
		pmv.NFS.InvalidateOnClose = bug
		w := Build(NFS, true, pmv)
		var reads int64
		err := w.Run(func(p *sim.Proc) error {
			if err := w.NS.WriteFile(p, "/data/f.dat", 256*1024, pm.TransferSize); err != nil {
				return err
			}
			base := w.ClientOps().Clone()
			if _, err := w.NS.ReadFile(p, "/data/f.dat", make([]byte, pm.TransferSize)); err != nil {
				return err
			}
			reads = w.ClientOps().Diff(base).Get("read")
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("invalidate-on-close bug, write+reread 256k",
			fmt.Sprintf("bug=%v", bug), "read RPCs", fmt.Sprintf("%d", reads))
	}

	// 4. The §7 name-cache extension: lookup traffic for the Andrew
	// benchmark with and without protocol-protected name caching.
	for _, nc := range []bool{false, true} {
		pmv := pm
		pmv.SNFS.NameCache = nc
		pmv.Andrew.Dirs = 2
		pmv.Andrew.FilesPerDir = 7
		w := Build(SNFS, true, pmv)
		var lookups, total int64
		err := w.Run(func(p *sim.Proc) error {
			if err := workload.SetupAndrew(p, w.NS, pmv.Andrew); err != nil {
				return err
			}
			base := w.ClientOps().Clone()
			if _, err := workload.RunAndrew(p, w.NS, pmv.Andrew); err != nil {
				return err
			}
			d := w.ClientOps().Diff(base)
			lookups, total = d.Get("lookup"), d.Total()
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("name cache (§7), small Andrew", fmt.Sprintf("nameCache=%v", nc),
			"lookup / total RPCs", fmt.Sprintf("%d / %d", lookups, total))
	}

	// 5. Parallelism on the client (§5.1): "SNFS gains most from
	// increased parallelism when only one job is running on the client
	// host... Less such I/O parallelism is available if many
	// applications are running in parallel." Compile the tree with
	// make -j1 vs -j4 under both protocols.
	for _, jobs := range []int{1, 4} {
		var elapsed [2]sim.Duration
		for i, pr := range []Proto{NFS, SNFS} {
			pmv := pm
			pmv.Andrew.Dirs = 2
			pmv.Andrew.FilesPerDir = 7
			w := Build(pr, true, pmv)
			// The client has one processor: concurrent compiles
			// contend for it, so one job's I/O wait is another's
			// compute time — the §5.1 mechanism.
			pmv.Andrew.CPU = sim.NewResource(w.K, "client-cpu")
			err := w.Run(func(p *sim.Proc) error {
				if err := workload.SetupAndrew(p, w.NS, pmv.Andrew); err != nil {
					return err
				}
				// Build the target tree (MakeDir + Copy) outside
				// the timed region.
				if err := w.NS.Mkdir(p, pmv.Andrew.DstDir, 0o755); err != nil {
					return err
				}
				buf := make([]byte, pmv.Andrew.ChunkSize)
				for d := 0; d < pmv.Andrew.Dirs; d++ {
					if err := w.NS.Mkdir(p, fmt.Sprintf("%s/dir%02d", pmv.Andrew.DstDir, d), 0o755); err != nil {
						return err
					}
					for f := 0; f < pmv.Andrew.FilesPerDir; f++ {
						src := fmt.Sprintf("%s/dir%02d/f%02d.c", pmv.Andrew.SrcDir, d, f)
						dst := fmt.Sprintf("%s/dir%02d/f%02d.c", pmv.Andrew.DstDir, d, f)
						if _, err := w.NS.CopyFile(p, src, dst, buf); err != nil {
							return err
						}
					}
				}
				d, err := workload.ParallelMake(p, w.NS, pmv.Andrew, jobs)
				if err != nil {
					return err
				}
				elapsed[i] = d
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("parallel make %s -j%d: %w", pr, jobs, err)
			}
		}
		gain := 1 - elapsed[1].Seconds()/elapsed[0].Seconds()
		t.AddRow("client parallelism (§5.1), small make",
			fmt.Sprintf("-j%d", jobs),
			"NFS / SNFS elapsed (SNFS gain)",
			fmt.Sprintf("%.1fs / %.1fs (%.0f%%)", elapsed[0].Seconds(), elapsed[1].Seconds(), gain*100))
	}

	// 6. Read-ahead: elapsed time for a cold 512 k sequential read with
	// per-chunk processing (read-ahead only pays off when the
	// application computes while the next block is in flight).
	for _, ra := range []bool{false, true} {
		w := BuildOpt(SNFS, true, pm, BuildOptions{ReadAhead: &ra})
		var elapsed sim.Duration
		err := w.Run(func(p *sim.Proc) error {
			if err := w.NS.WriteFile(p, "/data/big.dat", 512*1024, pm.TransferSize); err != nil {
				return err
			}
			w.NS.SyncAll(p)
			// Go cold: drop the client cache so the timed read
			// fetches every block from the server.
			w.InvalidateClientCache()
			start := p.Now()
			f, err := w.NS.Open(p, "/data/big.dat", vfs.ReadOnly, 0)
			if err != nil {
				return err
			}
			buf := make([]byte, pm.TransferSize)
			var off int64
			for {
				n, err := f.ReadInto(p, buf, off)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
				off += int64(n)
				p.Sleep(10 * sim.Millisecond) // process the chunk
				if n < len(buf) {
					break
				}
			}
			if err := f.Close(p); err != nil {
				return err
			}
			elapsed = p.Now().Sub(start)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("read-ahead, cold 512k read + compute", fmt.Sprintf("readAhead=%v", ra),
			"elapsed (ms)", fmt.Sprintf("%.0f", elapsed.Milliseconds()))
	}
	return t, nil
}
