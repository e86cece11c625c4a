package main

import (
	"fmt"
	"runtime"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
)

// fleetThink is the per-client mean think time, the knee sweep's: a
// fleet-scale population is mostly idle and the server saturates on
// aggregate demand.
const fleetThink = 30 * sim.Second

// fleetSetupBuilds is how many fleets each iteration builds to clock
// set-up.
const fleetSetupBuilds = 9

// fleetUnit runs the web-asset preset once per protocol: a closed loop
// of clients × ops operations with exponential think time, each client's
// stream drawn from (seed, client index).
type fleetUnit struct {
	pm     harness.Params
	cfg    scenario.Config
	protos []harness.Proto
	// storm, when set, is the SNFS configuration at the same population
	// that a traced run reads the retransmit cliff from.
	storm *scenario.Config
}

func webAsset(clients, ops int) scenario.Config {
	cfg, err := scenario.Named("web-asset")
	if err != nil {
		panic(err) // the preset name is a constant
	}
	cfg.Clients, cfg.Ops = clients, ops
	cfg.Gen.ThinkMean = fleetThink
	return cfg
}

func prepareFleet(opt options) (unit, error) {
	pm := harness.Default()
	pm.Seed = opt.seed
	cfg := webAsset(1000, 10)
	if opt.quick {
		cfg = webAsset(24, 4)
	}
	return &fleetUnit{pm: pm, cfg: cfg, protos: []harness.Proto{harness.NFS, harness.SNFS}}, nil
}

func prepareOverload(opt options) (unit, error) {
	pm := harness.Default()
	pm.Seed = opt.seed
	cfg, storm := webAsset(2000, 10), webAsset(2000, 12)
	if opt.quick {
		cfg, storm = webAsset(48, 4), webAsset(48, 4)
	}
	return &fleetUnit{pm: pm, cfg: cfg, protos: []harness.Proto{harness.NFS}, storm: &storm}, nil
}

func (u *fleetUnit) iterate(tr *tracer, warm bool) (iteration, error) {
	it := iteration{virtual: map[string]float64{}, layer: map[string]float64{}}
	pm := u.pm
	pm.Spans = tr != nil
	root := tr.start(0, "iteration")
	defer tr.end(root)
	for _, pr := range u.protos {
		sfx := suffix(pr)
		// scenario.Run builds, populates and drives the fleet in one
		// call, so set-up is clocked on fleets of the same size built and
		// torn down beside it. One build takes milliseconds; a collected
		// heap and the median of several keep the collector's share of
		// the reading steady.
		runtime.GC()
		sp := tr.start(root, "harness.BuildFleet/"+sfx)
		builds := make([]float64, fleetSetupBuilds)
		for i := range builds {
			builds[i], _, _ = hostCost(func() {
				f := harness.BuildFleet(pr, pm, harness.FleetOptions{Clients: u.cfg.Clients, SyncInterval: 5 * sim.Second})
				_ = f.W.Run(func(*sim.Proc) error { return nil }) // unwinds the world's processes; cannot fail
			})
		}
		tr.end(sp)
		_, med, _ := quartiles(builds)
		it.setupS += med

		sp = tr.start(root, "scenario.Run/"+sfx)
		var res scenario.Result
		var err error
		secs, allocs, mb := hostCost(func() { res, err = scenario.Run(pr, pm, u.cfg) })
		tr.end(sp)
		if err != nil {
			return it, fmt.Errorf("%s: %w", pr, err)
		}
		it.wallS += secs
		it.allocs += allocs
		it.allocMB += mb
		it.ops += res.CallsSent
		it.attempted += int64(u.cfg.Clients * u.cfg.Ops)
		it.failed += res.Errors
		if want := int64(u.cfg.Clients * u.cfg.Ops); res.Ops != want {
			it.violations = append(it.violations, fmt.Sprintf("%s: %d ops completed, want %d", sfx, res.Ops, want))
		}
		it.virtual["sim_elapsed_s_"+sfx] = res.VirtualSecs
		it.virtual["sim_rpcs_"+sfx] = float64(res.CallsSent)
		it.virtual["sim_latency_ms_"+sfx] = res.MeanLatencyUs / 1000
		it.virtual["sim_p95_latency_ms_"+sfx] = res.P95LatencyUs / 1000
		it.virtual["sim_goodput_ops_s_"+sfx] = float64(res.Ops-res.Errors) / res.VirtualSecs
		it.virtual["server.cpu_util_"+sfx] = res.ServerCPUUtil
		it.virtual["rpc.retransmits"] += float64(res.Retransmits)
		if w := float64(res.ExecWorkers); w > it.virtual["sim.exec_workers"] {
			it.virtual["sim.exec_workers"] = w
		}
	}
	it.opSeconds = it.wallS
	return it, nil
}

// extraLedger runs the storm point once: SNFS at the overload
// population, where hot write-shared files fan callbacks out, calls
// outlive their timeouts and retransmissions feed on themselves. Whether
// and when the storm starts depends on the seed, and ops can fail, so it
// is reported in the ledger and kept out of the gated run.
func (u *fleetUnit) extraLedger(tr *tracer) (map[string]float64, error) {
	if u.storm == nil {
		return nil, nil
	}
	sp := tr.start(0, "scenario.Run/storm")
	res, err := scenario.Run(harness.SNFS, u.pm, *u.storm)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("storm point: %w", err)
	}
	return map[string]float64{
		"storm.retransmits":   float64(res.Retransmits),
		"storm.goodput_ops_s": float64(res.Ops-res.Errors) / res.VirtualSecs,
		"storm.failed_frac":   float64(res.Errors) / float64(res.Ops),
		"storm.latency_ms":    res.MeanLatencyUs / 1000,
	}, nil
}
