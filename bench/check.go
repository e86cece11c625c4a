package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// -check compares two result sets with the benchmark's own rules: a
// virtual-clock metric must be identical (same commit, same seed, same
// simulation), an end-to-end host metric may not be worse in the second
// set by more than its bound, and a host metric whose own run-to-run
// spread exceeds its bound is "unresolved", not "unchanged". Per-layer
// host metrics carry no bound and are never compared.

// verdicts of one comparison.
const (
	verdictSame       = "same"
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictDiffers    = "DIFFERS"
	verdictUnresolved = "UNRESOLVED"
)

// compare judges metric name between a baseline reading a and a later
// reading b.
func compare(def metricDef, a, b reading) (verdict string, change float64) {
	if def.Clock == clockVirtual {
		if a.Value == b.Value {
			return verdictSame, 0
		}
		return verdictDiffers, b.Value - a.Value
	}
	if a.Value != 0 {
		change = b.Value/a.Value - 1
	}
	if def.Bound == 0 {
		return verdictOK, change
	}
	for _, r := range []reading{a, b} {
		if r.N > 1 && r.Value != 0 && (r.Q3-r.Q1)/r.Value > def.Bound {
			return verdictUnresolved, change
		}
	}
	worse := change
	if def.Better == "higher" {
		worse = -change
	}
	if worse > def.Bound {
		return verdictWorse, change
	}
	return verdictOK, change
}

// checkSets compares matching documents of two sets and reports whether
// every gated metric passed.
func checkSets(w io.Writer, base, later []*document) bool {
	key := func(d *document) string {
		return fmt.Sprintf("%s seed %d trace %v", d.Workload, d.Seed, d.Trace)
	}
	byKey := map[string]*document{}
	for _, d := range later {
		byKey[key(d)] = d
	}
	defs := byName(append(append([]metricDef(nil), endToEnd...), perLayer...))
	pass := true
	matched := 0
	for _, a := range base {
		b := byKey[key(a)]
		if b == nil {
			continue
		}
		matched++
		if a.Quick != b.Quick {
			fmt.Fprintf(w, "check %s: one run is -quick, the other is not\n", key(a))
			pass = false
			continue
		}
		names := make([]string, 0, len(a.Metrics))
		for name := range a.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		counts := map[string]int{}
		for _, name := range names {
			def, known := defs[name]
			rb, present := b.Metrics[name]
			if !known || !present {
				fmt.Fprintf(w, "check %s: %s is not in both runs\n", key(a), name)
				pass = false
				continue
			}
			verdict, change := compare(def, a.Metrics[name], rb)
			counts[verdict]++
			switch verdict {
			case verdictWorse, verdictDiffers, verdictUnresolved:
				pass = false
				fmt.Fprintf(w, "check %s: %-28s %-10s %v -> %v (%+.2f%%, bound %.0f%%)\n",
					key(a), name, verdict, a.Metrics[name].Value, rb.Value, 100*change, 100*def.Bound)
			}
		}
		fmt.Fprintf(w, "check %s: %d identical, %d within bound or ungated, %d worse, %d differing, %d unresolved\n",
			key(a), counts[verdictSame], counts[verdictOK], counts[verdictWorse], counts[verdictDiffers], counts[verdictUnresolved])
	}
	if matched == 0 {
		fmt.Fprintln(w, "check: the two sets share no (workload, seed, trace) run")
		return false
	}
	return pass
}

// loadSet reads one result document, or every *.json document in a
// directory (span files are skipped).
func loadSet(path string) ([]*document, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var docs []*document
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "spans-") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		d := &document{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if d.Workload == "" || d.Metrics == nil {
			return nil, fmt.Errorf("%s: not a bench result document", f)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// checkPaths is the -check entry point; it returns the exit status.
func checkPaths(w io.Writer, a, b string) int {
	base, err := loadSet(a)
	if err == nil {
		var later []*document
		if later, err = loadSet(b); err == nil {
			if checkSets(w, base, later) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(w, "bench: -check: %v\n", err)
	return 2
}

// renderTable prints the human view of a document.
func (d *document) renderTable(w io.Writer) {
	mode := "end-to-end, tracing off"
	if d.Trace {
		mode = "per-layer ledger, traced run"
	}
	fmt.Fprintf(w, "\n%s  seed %d  (%s; %s, GOMAXPROCS %d of %d CPUs)\n", d.Workload, d.Seed, mode, d.GoVersion, d.GOMAXPROCS, d.NumCPU)
	fmt.Fprintf(w, "  correct %v, %d attempted, %d failed\n", d.Correct, d.Attempted, d.Failed)
	for _, n := range d.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
	fmt.Fprintf(w, "  %-30s %16s %-6s %-8s %5s %14s %14s %6s\n", "metric", "value", "unit", "clock", "n", "q1", "q3", "bound")
	for _, def := range d.order {
		r := d.Metrics[def.Name]
		if d.Trace && r.N == 0 {
			continue // a layer this workload does not reach
		}
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-6s %-8s %5d %14.6g %14.6g %6s%s\n",
			def.Name, r.Value, r.Unit, r.Clock, r.N, r.Q1, r.Q3, bound, d.predictedShare(def.Name))
	}
	if d.Trace {
		fmt.Fprintf(w, "  unmeasured layers (no workload reaches them): %s\n", strings.Join(d.Unmeasured, ", "))
		fmt.Fprintf(w, "  spans: %s\n", d.SpanFile)
	}
}

// probeCounts maps a probe to the ledger counts of how often a workload
// performs that operation. Sim workloads run one goroutine at a time, so
// a probe that gets x% faster moves wall_s by at most x% of count ×
// ns_op ÷ wall_s: the share the table prints beside the probe.
var probeCounts = map[string][]string{
	"rpc.simcall_null_queue": {"sim_rpcs_snfs", "sim_rpcs_nfs"},
	"rpc.simcall_null_event": {"sim_rpcs_snfs", "sim_rpcs_nfs"},
	"rpc.simcall_write8k":    {"rpc.calls.write_snfs", "rpc.calls.write_nfs"},
	"xdr.encode_write8k":     {"rpc.calls.write_snfs", "rpc.calls.write_nfs"},
	"xdr.decode_write8k":     {"rpc.calls.write_snfs", "rpc.calls.write_nfs"},
	"server.getattr":         {"rpc.calls.getattr_snfs", "rpc.calls.getattr_nfs"},
	"server.lookup":          {"rpc.calls.lookup_snfs", "rpc.calls.lookup_nfs"},
	"server.read8k":          {"rpc.calls.read_snfs", "rpc.calls.read_nfs"},
	"server.write8k":         {"rpc.calls.write_snfs", "rpc.calls.write_nfs"},
	"server.open_close":      {"rpc.calls.open_snfs"},
}

// eventModeWorkloads run event-mode endpoints; the rest run queue mode.
var eventModeWorkloads = map[string]bool{"fleet": true, "fleet-overload": true}

// predictedShare renders the upper bound on the share of wall_s a probe's
// operation accounts for on this workload, or "" when there is no count.
func (d *document) predictedShare(metric string) string {
	name, ok := strings.CutSuffix(metric, ".ns_op")
	counts := probeCounts[name]
	if !ok || counts == nil || d.UntracedWallS == 0 {
		return ""
	}
	// Only the endpoint mode the workload runs applies to it.
	other := "rpc.simcall_null_event"
	if eventModeWorkloads[d.Workload] {
		other = "rpc.simcall_null_queue"
	}
	if name == other {
		return ""
	}
	var n float64
	for _, c := range counts {
		n += d.Metrics[c].Value
	}
	if n == 0 {
		return ""
	}
	share := n * d.Metrics[metric].Value / (d.UntracedWallS * 1e9)
	return fmt.Sprintf("  x%.0f = at most %.1f%% of wall_s", n, 100*share)
}
