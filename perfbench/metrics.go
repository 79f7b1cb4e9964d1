package main

// metric is one named figure. Bound applies to the end-to-end metrics
// the JSON line carries: the share of the parent commit's median by
// which the metric may worsen before a change counts as a regression.
type metric struct {
	name, unit, better string
	bound              float64
	note               string
}

// endToEnd are the end-to-end metrics of the --trace 0 JSON line. Each
// applies to every workload and is never zero; BENCHMARK.json lists
// the same names, units and bounds.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, note: "host: the fixed work, excluding set-up"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, note: "host: building inputs and clusters"},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25, note: "host: simulated events per second of simulation"},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.2, note: "host: bytes allocated over the fixed work"},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.25, note: "host: highest heap reachable after a simulation call"},
	{name: "virt_exec_ms", unit: "ms", better: "lower", bound: 0.15, note: "virtual: summed simulated execution time of the cells"},
}

// reportedEndToEnd are every end-to-end metric the report prints; the
// workload-specific ones read n/a where they do not apply.
var reportedEndToEnd = append(append([]metric(nil), endToEnd...), []metric{
	{name: "fail_ratio", unit: "ratio", note: "failed / attempted operations (the JSON line's failed and attempted)"},
	{name: "ft_overhead_pct", unit: "%", note: "virtual, paper_grid: geomean over app x threads of extended/base - 1"},
	{name: "ft_overhead_t1_pct", unit: "%", note: "virtual, paper_grid: the same at 1 thread/node"},
	{name: "ft_overhead_t2_pct", unit: "%", note: "virtual, paper_grid: the same at 2 threads/node"},
	{name: "boundaries_per_s", unit: "1/s", note: "host, fault_sweep: verdicts per second of the whole sweep"},
	{name: "recover_ms", unit: "ms", note: "virtual: mean kill-to-recovery.done time of the recovered cells"},
	{name: "p50_us", unit: "us", note: "virtual, serve_chaos: latency from scheduled arrival, all cells' requests"},
	{name: "p99_us", unit: "us", note: "virtual, serve_chaos"},
	{name: "p999_us", unit: "us", note: "virtual, serve_chaos"},
	{name: "latency_samples", unit: "count", note: "serve_chaos: requests behind the percentiles"},
	{name: "kreq_per_s", unit: "1/s", note: "virtual, serve_chaos: thousands of requests per simulated second"},
	{name: "unavail_ms", unit: "ms", note: "virtual, serve_chaos: undetected + detecting + recovery + re-warm time, summed over cells"},
}...)

// perLayer are the metrics of the --trace 1 JSON line. Host figures
// are per traced pass; counts are the first pass's (every pass repeats
// them exactly). A figure that does not apply reads 0.
var perLayer = []metric{
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.host_s", unit: "s", better: "lower"},
	{name: "vmmc.msgs", unit: "count", better: "lower"},
	{name: "vmmc.wire_mb", unit: "MB", better: "lower"},
	{name: "vmmc.post_stall_ms", unit: "ms", better: "lower"},
	{name: "vmmc.retransmits", unit: "count", better: "lower"},
	{name: "vmmc.probes", unit: "count", better: "lower"},
	{name: "vmmc.false_suspicions", unit: "count", better: "lower"},
	{name: "vmmc.false_suspicion_ratio", unit: "ratio", better: "lower"},
	{name: "vmmc.host_s", unit: "s", better: "lower"},
	{name: "svm.read_faults", unit: "count", better: "lower"},
	{name: "svm.write_faults", unit: "count", better: "lower"},
	{name: "svm.intervals", unit: "count", better: "lower"},
	{name: "svm.remote_acquires", unit: "count", better: "lower"},
	{name: "svm.barrier_episodes", unit: "count", better: "lower"},
	{name: "svm.recoveries", unit: "count", better: "lower"},
	{name: "svm.host_s", unit: "s", better: "lower"},
	{name: "svm.virt_compute_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_data_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_lock_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_barrier_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_diff_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_checkpoint_ms", unit: "ms", better: "lower"},
	{name: "svm.virt_protocol_ms", unit: "ms", better: "lower"},
	{name: "mem.twin_mb", unit: "MB", better: "lower"},
	{name: "mem.diff_mb", unit: "MB", better: "lower"},
	{name: "mem.pages_diffed", unit: "count", better: "lower"},
	{name: "mem.host_s", unit: "s", better: "lower"},
	{name: "proto.rehome_us", unit: "us", better: "lower"},
	{name: "proto.dir_mb", unit: "MB", better: "lower"},
	{name: "proto.host_s", unit: "s", better: "lower"},
	{name: "ckpt.count", unit: "count", better: "lower"},
	{name: "checkpoint.host_s", unit: "s", better: "lower"},
	{name: "audit.host_s", unit: "s", better: "lower"},
	{name: "oracle.host_s", unit: "s", better: "lower"},
	{name: "recorder.host_s", unit: "s", better: "lower"},
	{name: "explore.host_s", unit: "s", better: "lower"},
	{name: "explore.record_s", unit: "s", better: "lower"},
	{name: "explore.verdict_ms_p50", unit: "ms", better: "lower"},
	{name: "explore.verdict_ms_p90", unit: "ms", better: "lower"},
	{name: "explore.verdicts", unit: "count", better: "higher"},
	{name: "explore.events_per_verdict", unit: "count", better: "lower"},
	{name: "explore.injected_ratio", unit: "ratio", better: "higher"},
	{name: "serve.host_s", unit: "s", better: "lower"},
	{name: "serve.completed", unit: "count", better: "higher"},
	{name: "setup.build_s", unit: "s", better: "lower"},
	{name: "setup.cluster_s", unit: "s", better: "lower"},
	{name: "setup.alloc_mb", unit: "MB", better: "lower"},
	{name: "gc.host_s", unit: "s", better: "lower"},
	{name: "gc.cycles", unit: "count", better: "lower"},
	{name: "apps.host_s", unit: "s", better: "lower"},
	{name: "unattributed_pct", unit: "%", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// wallNs is a pass's host time excluding set-up.
func (p *pass) wallNs() float64 { return float64(p.totalNs - p.setupNs - p.untimedNs) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes every end-to-end metric that applies.
func (o *outcome) endToEnd() map[string]float64 {
	w, ps := o.first, o.timed
	m := map[string]float64{
		"wall_s":       median(ps, (*pass).wallNs) / 1e9,
		"setup_s":      median(ps, func(p *pass) float64 { return float64(p.setupNs) }) / 1e9,
		"events_per_s": ratio(w.counts["sim.events"], median(ps, func(p *pass) float64 { return float64(p.simNs) })/1e9),
		"alloc_mb":     median(ps, func(p *pass) float64 { return float64(p.alloc) }) / 1e6,
		"peak_heap_mb": float64(w.peakHeap) / 1e6,
		"virt_exec_ms": w.counts["sim.exec_ns"] / 1e6,
		"fail_ratio":   ratio(float64(o.failed), float64(o.attempted)),
	}
	if t1, t2 := w.overhead[0], w.overhead[1]; len(t1)+len(t2) > 0 {
		m["ft_overhead_pct"] = (geomean(append(append([]float64(nil), t1...), t2...)) - 1) * 100
		m["ft_overhead_t1_pct"] = (geomean(t1) - 1) * 100
		m["ft_overhead_t2_pct"] = (geomean(t2) - 1) * 100
	}
	if v := w.counts["explore.verdicts"]; v > 0 {
		m["boundaries_per_s"] = median(ps, func(p *pass) float64 { return v / (float64(p.totalNs-p.untimedNs) / 1e9) })
	}
	if len(w.recoverNs) > 0 {
		var s int64
		for _, r := range w.recoverNs {
			s += r
		}
		m["recover_ms"] = float64(s) / float64(len(w.recoverNs)) / 1e6
	}
	if h := w.hist; h.Count() > 0 {
		m["p50_us"] = float64(h.Percentile(0.50)) / 1e3
		m["p99_us"] = float64(h.Percentile(0.99)) / 1e3
		m["p999_us"] = float64(h.Percentile(0.999)) / 1e3
		m["latency_samples"] = float64(h.Count())
		m["kreq_per_s"] = w.counts["serve.completed"] / (w.counts["serve.exec_ns"] / 1e9) / 1e3
		m["unavail_ms"] = float64(w.unavailNs) / 1e6
	}
	return m
}

// perLayer computes every per-layer metric.
func (o *outcome) perLayer() map[string]float64 {
	c, tp := o.first.counts, o.traced
	n := float64(len(tp))
	hostS := func(layer string) float64 { return float64(o.layerNs[layer]) / n / 1e9 }
	var totalNs int64
	for _, ns := range o.layerNs {
		totalNs += ns
	}
	m := map[string]float64{
		"sim.events":                 c["sim.events"],
		"vmmc.msgs":                  c["vmmc.msgs_sent"],
		"vmmc.wire_mb":               c["vmmc.bytes_sent"] / 1e6,
		"vmmc.post_stall_ms":         c["vmmc.post_stalls_ns"] / 1e6,
		"vmmc.retransmits":           c["vmmc.retransmits"],
		"vmmc.probes":                c["vmmc.probes_sent"],
		"vmmc.false_suspicions":      c["vmmc.false_suspicions"],
		"vmmc.false_suspicion_ratio": ratio(c["vmmc.false_suspicions"], c["vmmc.probes_sent"]),
		"svm.read_faults":            c["svm.read_faults"],
		"svm.write_faults":           c["svm.write_faults"],
		"svm.intervals":              c["svm.intervals"],
		"svm.remote_acquires":        c["svm.remote_acquires"],
		"svm.barrier_episodes":       c["svm.barrier_episodes"],
		"svm.recoveries":             c["svm.recoveries"],
		"mem.twin_mb":                c["svm.twin_bytes_copied"] / 1e6,
		"mem.diff_mb":                c["svm.diff_bytes"] / 1e6,
		"mem.pages_diffed":           c["svm.pages_diffed"],
		"proto.rehome_us":            median(tp, func(p *pass) float64 { return float64(p.rehomeNs) }) / 1e3,
		"proto.dir_mb":               c["proto.dir_bytes"] / 1e6,
		"ckpt.count":                 c["ckpt.checkpoints"],
		"explore.verdicts":           c["explore.verdicts"],
		"explore.events_per_verdict": ratio(c["explore.verdict_events"], c["explore.verdicts"]),
		"explore.injected_ratio":     ratio(c["explore.injected"], c["explore.requested"]),
		"serve.completed":            c["serve.completed"],
		"setup.build_s":              median(o.timed, func(p *pass) float64 { return float64(p.buildNs) }) / 1e9,
		"setup.cluster_s":            median(o.timed, func(p *pass) float64 { return float64(p.clusterNs) }) / 1e9,
		"setup.alloc_mb":             median(o.timed, func(p *pass) float64 { return float64(p.setupAlloc) }) / 1e6,
		"gc.cycles":                  median(o.timed, func(p *pass) float64 { return float64(p.gcCycles) }),
		"unattributed_pct":           100 * ratio(float64(o.layerNs[layerUnattributed]), float64(totalNs)),
		"trace_overhead_pct": 100 * (ratio(median(tp, (*pass).wallNs),
			median(o.timed, (*pass).wallNs)) - 1),
	}
	for _, c := range []string{"compute", "data", "lock", "barrier", "diff", "checkpoint", "protocol"} {
		m["svm.virt_"+c+"_ms"] = o.first.counts["svm.virt_"+c+"_ns"] / 1e6
	}
	for _, l := range []string{"sim", "vmmc", "svm", "mem", "proto", "checkpoint", layerAudit, layerOracle, layerRecorder, "explore", "serve", layerGC, "apps"} {
		m[l+".host_s"] = hostS(l)
	}
	// Explorer host time per call, from the spans' self time (set-up
	// nested inside a record or verdict excluded).
	var recordS, verdictMs []float64
	for _, p := range tp {
		self := selfTimes(p.spans)
		var rec float64
		for _, s := range p.spans {
			switch s.Name {
			case "record":
				rec += float64(self[s.ID]) / 1e9
			case "verdict":
				verdictMs = append(verdictMs, float64(self[s.ID])/1e6)
			}
		}
		recordS = append(recordS, rec)
	}
	m["explore.record_s"] = percentile(recordS, 0.5)
	m["explore.verdict_ms_p50"] = percentile(verdictMs, 0.5)
	m["explore.verdict_ms_p90"] = percentile(verdictMs, 0.9)
	return m
}

// selfTimes returns each span's duration less its children's.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}
