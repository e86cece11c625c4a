package main

import (
	"fmt"
	"sort"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
)

// scenarioSweepThink is the per-client think-time mean used by the knee
// sweep. Fleet-scale populations are mostly idle — the server saturates
// on aggregate demand, so a thousand-client sweep needs each client
// asking rarely (the smoke presets keep their hotter per-scenario think
// times; the sweep measures population scaling, not per-client rate).
const scenarioSweepThink = 30 * sim.Second

// scenarioSweepOps is ops per client in the knee sweep.
const scenarioSweepOps = 20

type scenarioJSON struct {
	Experiment  string                       `json:"experiment"`
	Scenario    string                       `json:"scenario"`
	MaxSlowdown float64                      `json:"max_slowdown"`
	Smoke       []scenarioSmokeJSON          `json:"smoke"`
	Protocols   map[string]scenarioProtoJSON `json:"protocols"`
}

type scenarioSmokeJSON struct {
	Scenario string `json:"scenario"`
	Proto    string `json:"proto"`
	Clients  int    `json:"clients"`
	Ops      int64  `json:"ops"`
	Errors   int64  `json:"errors"`
	Audited  bool   `json:"audited"`
}

type scenarioProtoJSON struct {
	SustainableClients int                 `json:"sustainable_clients"`
	Points             []scenarioPointJSON `json:"points"`
}

type scenarioPointJSON struct {
	Clients       int     `json:"clients"`
	Ops           int64   `json:"ops"`
	Errors        int64   `json:"errors"`
	MeanLatencyUs float64 `json:"mean_latency_us"`
	P95LatencyUs  float64 `json:"p95_latency_us"`
	Slowdown      float64 `json:"slowdown"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	ServerCPU     float64 `json:"server_cpu"`
	CallsSent     int64   `json:"calls_sent"`
	Retransmits   int64   `json:"retransmits"`
	// ExecWorkers is the fleet's goroutine high-water mark — the
	// scaling evidence: thousands of clients, tens of goroutines.
	ExecWorkers int `json:"exec_workers"`
}

// scenarioClients are the populations of the knee sweep.
var scenarioClients = []int{16, 1000, 2000, 4000}

// scenarioExperiment is the fleet-scale load experiment: an audited
// small-N smoke pass over every named scenario under both protocols,
// then a web-asset knee sweep over the counts populations, NFS vs SNFS.
// Every run is a world of its own, so they all go out together, the
// largest populations first. Self-checking: every smoke run must complete
// all its ops with zero errors, and the sweep's base point must too.
func scenarioExperiment(e *env, counts []int) error {
	w := e.w
	protos := []harness.Proto{harness.NFS, harness.SNFS}
	type job struct {
		pr  harness.Proto
		pm  harness.Params
		cfg scenario.Config
	}
	var jobs []job
	// Phase 1: audited smoke at small N, all scenarios, both protocols.
	for _, name := range scenario.Names() {
		for _, pr := range protos {
			cfg, err := scenario.Named(name)
			if err != nil {
				return err
			}
			cfg.Clients, cfg.Ops = 8, 10
			spm := e.pm
			spm.Audit = spm.Audit || pr == harness.SNFS
			jobs = append(jobs, job{pr, spm, cfg})
		}
	}
	nsmoke := len(jobs)
	// Phase 2: the knee sweep. Same per-client demand at every
	// population; the knee is where aggregate demand outruns the
	// server.
	for _, pr := range protos {
		for _, n := range counts {
			cfg, err := scenario.Named("web-asset")
			if err != nil {
				return err
			}
			cfg.Clients, cfg.Ops = n, scenarioSweepOps
			cfg.Gen.ThinkMean = scenarioSweepThink
			jobs = append(jobs, job{pr, e.pm, cfg})
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].cfg.Clients > jobs[order[b]].cfg.Clients })
	results := make([]scenario.Result, len(jobs))
	if err := e.pm.Each(len(jobs), func(k int) (err error) {
		j := jobs[order[k]]
		if results[order[k]], err = scenario.Run(j.pr, j.pm, j.cfg); err != nil {
			err = fmt.Errorf("%s/%s n=%d: %w", j.cfg.Name, j.pr, j.cfg.Clients, err)
		}
		return err
	}); err != nil {
		return err
	}

	doc := scenarioJSON{
		Experiment:  "scenario",
		Scenario:    "web-asset",
		MaxSlowdown: knee,
		Protocols:   map[string]scenarioProtoJSON{},
	}
	fmt.Fprintln(w, "Scenario smoke (8 clients, audited SNFS):")
	for i, j := range jobs[:nsmoke] {
		res := results[i]
		if res.Errors != 0 {
			return fmt.Errorf("smoke %s/%s: %d op errors", j.cfg.Name, j.pr, res.Errors)
		}
		if res.Ops != int64(j.cfg.Clients*j.cfg.Ops) {
			return fmt.Errorf("smoke %s/%s: %d of %d ops completed", j.cfg.Name, j.pr, res.Ops, j.cfg.Clients*j.cfg.Ops)
		}
		doc.Smoke = append(doc.Smoke, scenarioSmokeJSON{
			Scenario: j.cfg.Name, Proto: j.pr.String(), Clients: j.cfg.Clients,
			Ops: res.Ops, Errors: res.Errors, Audited: j.pr == harness.SNFS,
		})
		fmt.Fprintf(w, "  %-10s %-4s  %3d ops  mean %7.1f ms  p95 %7.1f ms\n",
			j.cfg.Name, j.pr, res.Ops, res.MeanLatencyUs/1000, res.P95LatencyUs/1000)
	}

	fmt.Fprintf(w, "\nweb-asset knee sweep (think %s, %d ops/client):\n",
		scenarioSweepThink, scenarioSweepOps)
	fmt.Fprintf(w, "%-5s %8s %12s %12s %10s %8s %8s %7s\n",
		"proto", "clients", "mean-lat", "p95-lat", "slowdown", "srv-cpu", "ops/s", "workers")
	for pi, pr := range protos {
		pj := scenarioProtoJSON{}
		var curve []harness.ScalePoint
		sweep := results[nsmoke+pi*len(counts):][:len(counts)]
		base := sweep[0].MeanLatencyUs
		if sweep[0].Errors != 0 {
			return fmt.Errorf("sweep %s base point n=%d: %d op errors", pr, counts[0], sweep[0].Errors)
		}
		for i, n := range counts {
			res := sweep[i]
			slow := res.MeanLatencyUs / base
			fmt.Fprintf(w, "%-5s %8d %10.1fms %10.1fms %9.2fx %7.0f%% %8.1f %7d\n",
				pr, n, res.MeanLatencyUs/1000, res.P95LatencyUs/1000, slow,
				100*res.ServerCPUUtil, res.OpsPerSec, res.ExecWorkers)
			pj.Points = append(pj.Points, scenarioPointJSON{
				Clients:       n,
				Ops:           res.Ops,
				Errors:        res.Errors,
				MeanLatencyUs: res.MeanLatencyUs,
				P95LatencyUs:  res.P95LatencyUs,
				Slowdown:      slow,
				OpsPerSec:     res.OpsPerSec,
				ServerCPU:     res.ServerCPUUtil,
				CallsSent:     res.CallsSent,
				Retransmits:   res.Retransmits,
				ExecWorkers:   res.ExecWorkers,
			})
			curve = append(curve, harness.ScalePoint{Clients: n, Slowdown: slow})
		}
		pj.SustainableClients = harness.SustainableClients(curve, knee)
		doc.Protocols[pr.String()] = pj
		fmt.Fprintf(w, "%s: sustains %d clients within %.2fx of the %d-client mean\n",
			pr, pj.SustainableClients, knee, counts[0])
	}
	return e.create("BENCH_scenario.json", asJSON(doc))
}
