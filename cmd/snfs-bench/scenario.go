package main

import (
	"fmt"
	"io"

	"spritelynfs/internal/harness"
	"spritelynfs/internal/scenario"
	"spritelynfs/internal/sim"
)

// scenarioKnee is the slowdown bound defining the sustainable client
// count of the scenario sweep: the largest fleet whose mean op latency
// stays within this factor of the base point's. The CI scenario job
// checks the knees in BENCH_scenario.json against it.
const scenarioKnee = 1.5

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

// scenarioExperiment is the fleet-scale load experiment: an audited
// small-N smoke pass over every named scenario under both protocols,
// then a web-asset knee sweep over -scenario-clients populations,
// NFS vs SNFS. Self-checking: every smoke run must complete all its
// ops with zero errors, and the sweep's base point must too.
func scenarioExperiment(w io.Writer, pm harness.Params) error {
	doc := scenarioJSON{
		Experiment:  "scenario",
		Scenario:    "web-asset",
		MaxSlowdown: scenarioKnee,
		Protocols:   map[string]scenarioProtoJSON{},
	}

	// Phase 1: audited smoke at small N, all scenarios, both protocols.
	fmt.Fprintln(w, "Scenario smoke (8 clients, audited SNFS):")
	for _, name := range scenario.Names() {
		for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
			cfg, err := scenario.Named(name)
			if err != nil {
				return err
			}
			cfg.Clients, cfg.Ops = 8, 10
			spm := pm
			audited := pr == harness.SNFS
			if audited {
				spm.Audit = true
			}
			res, err := scenario.Run(pr, spm, cfg)
			if err != nil {
				return fmt.Errorf("smoke %s/%s: %w", name, pr, err)
			}
			if res.Errors != 0 {
				return fmt.Errorf("smoke %s/%s: %d op errors", name, pr, res.Errors)
			}
			if res.Ops != int64(cfg.Clients*cfg.Ops) {
				return fmt.Errorf("smoke %s/%s: %d of %d ops completed", name, pr, res.Ops, cfg.Clients*cfg.Ops)
			}
			doc.Smoke = append(doc.Smoke, scenarioSmokeJSON{
				Scenario: name, Proto: pr.String(), Clients: cfg.Clients,
				Ops: res.Ops, Errors: res.Errors, Audited: audited,
			})
			fmt.Fprintf(w, "  %-10s %-4s  %3d ops  mean %7.1f ms  p95 %7.1f ms\n",
				name, pr, res.Ops, res.MeanLatencyUs/1000, res.P95LatencyUs/1000)
		}
	}

	// Phase 2: the knee sweep. Same per-client demand at every
	// population; the knee is where aggregate demand outruns the
	// server.
	counts, err := parseCounts(scenarioClientsFlag)
	if err != nil {
		return fmt.Errorf("-scenario-clients: %w", err)
	}
	fmt.Fprintf(w, "\nweb-asset knee sweep (think %s, %d ops/client):\n",
		scenarioSweepThink, scenarioSweepOps)
	fmt.Fprintf(w, "%-5s %8s %12s %12s %10s %8s %8s %7s\n",
		"proto", "clients", "mean-lat", "p95-lat", "slowdown", "srv-cpu", "ops/s", "workers")
	for _, pr := range []harness.Proto{harness.NFS, harness.SNFS} {
		pj := scenarioProtoJSON{}
		var base float64
		for _, n := range counts {
			cfg, err := scenario.Named("web-asset")
			if err != nil {
				return err
			}
			cfg.Clients, cfg.Ops = n, scenarioSweepOps
			cfg.Gen.ThinkMean = scenarioSweepThink
			res, err := scenario.Run(pr, pm, cfg)
			if err != nil {
				return fmt.Errorf("sweep %s n=%d: %w", pr, n, err)
			}
			if base == 0 {
				base = res.MeanLatencyUs
				if res.Errors != 0 {
					return fmt.Errorf("sweep %s base point n=%d: %d op errors", pr, n, res.Errors)
				}
			}
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
			if slow <= scenarioKnee && n > pj.SustainableClients {
				pj.SustainableClients = n
			}
		}
		doc.Protocols[pr.String()] = pj
		fmt.Fprintf(w, "%s: sustains %d clients within %.2fx of the %d-client mean\n",
			pr, pj.SustainableClients, scenarioKnee, counts[0])
	}

	return writeOutput(w, "\nCSV", "BENCH_scenario.json", asJSON(doc))
}
