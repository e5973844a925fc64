package main

import (
	"encoding/json"
	"fmt"
	"os"

	"castan/internal/obs"
)

// row is one reported metric with the base it was computed over.
type row struct {
	name  string
	value float64
	unit  string
	base  string
}

// endToEnd computes the end-to-end metrics over the untraced passes.
// Each timing's base gives its spread over the passes: the distance
// between the quartiles as a share of the median.
func endToEnd(ps []*record, setup float64) []row {
	timing := func(name, unit string, scale float64, f func(*record) float64) row {
		xs := field(ps, f)
		base := fmt.Sprintf("median of %d passes", len(xs))
		if len(xs) >= 2 {
			base += fmt.Sprintf(", spread %.1f%%", 100*spread(xs))
		}
		return row{name, median(xs) / scale, unit, base}
	}
	var attempted, failed int
	for _, p := range ps {
		attempted += p.Attempted
		failed += p.Failed
	}
	first := ps[0]
	return []row{
		timing("pass_s", "s", 1, func(p *record) float64 { return p.Wall }),
		timing("pass_cpu_s", "s", 1, func(p *record) float64 { return p.CPU }),
		timing("max_analyze_s", "s", 1, func(p *record) float64 { return p.MaxAnalyze }),
		timing("alloc_mb", "MB", 1e6, func(p *record) float64 { return p.AllocBytes }),
		timing("peak_rss_mb", "MB", 1e6, func(p *record) float64 { return p.PeakRSS }),
		{"setup_s", setup, "s", "store fill, or else one warm-up pass"},
		{"ok_frac", ratio(float64(attempted-failed), float64(attempted), 0), "ratio", fmt.Sprintf("%d of %d operations", attempted-failed, attempted)},
		{"adv_cycles_per_pkt", mean(first.AdvCycles), "cycles", fmt.Sprintf("mean over %d NFs of the replayed median", len(first.AdvCycles))},
		{"havocs_reconciled_frac", ratio(float64(first.Reconciled), float64(first.Havocs), 1), "ratio",
			fmt.Sprintf("%d of %d havocs (none: 1)", first.Reconciled, first.Havocs)},
	}
}

// layerMetrics computes the per-layer metrics over the traced passes.
func layerMetrics(plain, traced []*record) []row {
	n := len(traced)
	per := fmt.Sprintf("per pass, median of %d traced", n)
	snaps := make([]*obs.Metrics, n)
	for i, p := range traced {
		snaps[i] = p.Telemetry
	}
	// med is the median over the traced passes of f.
	med := func(f func(i int, p *record) float64) float64 {
		xs := make([]float64, n)
		for i, p := range traced {
			xs[i] = f(i, p)
		}
		return median(xs)
	}
	counter := func(name string) float64 {
		return med(func(i int, _ *record) float64 { return float64(snaps[i].Counters[name]) })
	}
	phase := func(name string) float64 {
		return med(func(i int, _ *record) float64 {
			for _, ph := range snaps[i].Phases {
				if ph.Name == name {
					return float64(ph.TotalNanos) / 1e9
				}
			}
			return 0
		})
	}
	layer := func(name string) float64 { return med(func(_ int, p *record) float64 { return p.Layer[name] }) }
	// frac is the median over the traced passes of num/den, 0 when den is 0.
	frac := func(f func(c map[string]uint64) (num, den float64)) float64 {
		return med(func(i int, _ *record) float64 {
			num, den := f(snaps[i].Counters)
			return ratio(num, den, 0)
		})
	}
	// hitFrac is the share of <prefix>hits among hits and misses.
	hitFrac := func(prefix string) float64 {
		return frac(func(c map[string]uint64) (float64, float64) {
			h := float64(c[prefix+"hits"])
			return h, h + float64(c[prefix+"misses"])
		})
	}
	wall := med(func(_ int, p *record) float64 { return p.Wall })
	cpu := med(func(_ int, p *record) float64 { return p.CPU })
	plainWall := median(field(plain, func(p *record) float64 { return p.Wall }))

	queries := snaps[n-1].Histograms["solver.query_ns"]
	p50, ok := histQuantile(queries, 0.5, 10)
	p50base := fmt.Sprintf("%d queries in the last traced pass", queries.Count)
	if !ok {
		p50base += " (fewer than 20: not reported)"
	}

	rows := []row{
		{"castan.reconcile_s", phase("castan.reconcile"), "s", per},
		{"rainbow.chains", counter("rainbow.chains"), "count", per},
		{"rainbow.invert_attempts", counter("rainbow.invert_attempts"), "count", per},
		{"rainbow.bruteforce_calls", counter("rainbow.bruteforce_calls"), "count", per},
		{"rainbow.invert_hit_frac", frac(func(c map[string]uint64) (float64, float64) {
			a := float64(c["rainbow.invert_attempts"])
			return a - float64(c["rainbow.bruteforce_calls"]), a
		}), "ratio",
			fmt.Sprintf("(attempts - brute force) / %.0f attempts (none: 0)", counter("rainbow.invert_attempts"))},
		{"castan.discover_s", phase("castan.discover"), "s", per},
		{"memsim.probe_line_reads", counter("memsim.probe_line_reads"), "count", per},
		{"memsim.dram_misses", counter("memsim.dram_misses"), "count", per + ", analysis hierarchy only"},
		{"store.bytes", med(func(_ int, p *record) float64 { return p.StoreBytes }), "B", "store size after the pass (no store: 0)"},
		{"castan.store.hit_frac", hitFrac("castan.store."), "ratio",
			fmt.Sprintf("hits / %.0f lookups (none: 0)", counter("castan.store.hits")+counter("castan.store.misses"))},
		{"castan.store.writes", counter("castan.store.writes"), "count", per},
		{"castan.symbex_s", phase("castan.symbex"), "s", per},
		{"solver.queries", counter("solver.queries"), "count", per},
		{"solver.backtracks", counter("solver.backtracks"), "count", per},
		{"solver.queries_avoided", counter("solver.queries_avoided"), "count", per},
		{"solver.memo_hit_frac", hitFrac("solver.memo_"), "ratio",
			fmt.Sprintf("memo hits / %.0f memo lookups (none: 0)", counter("solver.memo_hits")+counter("solver.memo_misses"))},
		{"solver.query_p50_us", p50 / 1e3, "us", p50base},
		{"symbex.state_pops", counter("symbex.state_pops"), "count", per},
		{"symbex.forks", counter("symbex.forks"), "count", per},
		{"symbex.instructions", counter("symbex.instructions"), "count", per},
		{"symbex.pruned_edges", counter("symbex.pruned_edges"), "count", per},
		{"symbex.merged_states", counter("symbex.merged_states"), "count", per},
		{"castan.static_s", phase("castan.static"), "s", per},
		{"castan.cachecost_s", phase("castan.cachecost"), "s", per},
		{"castan.icfg_s", phase("castan.icfg"), "s", per},
		{"cachecost.fixpoint_iterations", counter("cachecost.fixpoint_iterations"), "count", per},
		{"testbed.measure_s", layer("testbed.measure_s"), "s", per},
		{"testbed.pkts_per_s", med(func(_ int, p *record) float64 {
			return ratio(p.Layer["testbed.packets"], p.Layer["testbed.measure_s"], 0)
		}), "1/s",
			fmt.Sprintf("%.0f replayed packets (warm-up and measured) per pass", layer("testbed.packets"))},
		{"workload.gen_s", layer("workload.gen_s"), "s", per + ", timed after the pass (campaign only)"},
		{"experiments.analyze_s", layer("experiments.analyze_s"), "s", per},
		{"experiments.render_s", layer("experiments.render_s"), "s", per},
		{"interp.validate_s", layer("interp.validate_s"), "s", per},
		{"nf.build_s", layer("nf.build_s"), "s", per},
		{"parallel.busy_cores", ratio(cpu, wall, 0), "cores", fmt.Sprintf("%.3f CPU s / %.3f s traced pass", cpu, wall)},
		{"go.gc_cpu_frac", med(func(_ int, p *record) float64 { return ratio(p.GCCPU, p.CPU, 0) }), "ratio", "GC CPU / process CPU, " + per},
		{"trace.overhead_frac", ratio(wall, plainWall, 1) - 1, "ratio",
			fmt.Sprintf("%.3f s traced / %.3f s untraced pass (medians of %d and %d)", wall, plainWall, n, len(plain))},
	}
	return rows
}

// writeLayers writes the per-layer metrics with their bases, and the
// last traced pass's telemetry snapshot, beside that pass's Chrome trace.
func writeLayers(base string, rows []row, last *obs.Metrics) error {
	type layerRow struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Base  string  `json:"base"`
	}
	out := struct {
		Layers    map[string]layerRow `json:"layers"`
		LastTrace *obs.Metrics        `json:"last_traced_pass"`
	}{Layers: map[string]layerRow{}, LastTrace: last}
	for _, r := range rows {
		out.Layers[r.name] = layerRow{r.value, r.unit, r.base}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s.trace.json and %s.layers.json\n", base, base)
	return os.WriteFile(base+".layers.json", data, 0o644)
}

func field(ps []*record, f func(*record) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
