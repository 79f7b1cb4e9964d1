package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"ftsvm/internal/apps"
	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

// workload is one named body of fixed work. run executes it once, cell
// by cell, on the serial engine.
type workload struct {
	name string
	run  func(p *pass)
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []workload{
	{"paper_grid", paperGrid},
	{"fault_sweep", faultSweep},
	{"serve_chaos", serveChaos},
}

// extraWorkloads run on request but are not in BENCHMARK.json: a
// tier_scale pass takes 6-8 s and 1.3 GB, and the benchmark's run
// budget holds only three workloads at the run length that steadies
// them.
var extraWorkloads = []workload{
	{"tier_scale", tierScale},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range append(append([]workload(nil), workloads...), extraWorkloads...) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload lengths. The quick lengths serve the self-test only.
const (
	sweepCandidates = 128  // evenly sampled boundaries per app
	sweepQuick      = 2    // verdicts per app
	serveRequests   = 1000 // requests per serving thread
	serveQuick      = 40
)

// paperGrid is BENCH_PR1's grid: the six SPLASH-2 kernels, base and
// extended protocol, 1 and 2 threads per node, 8 nodes, medium size.
func paperGrid(p *pass) {
	size, names := harness.SizeMedium, harness.AppNames
	if p.quick {
		size, names = harness.SizeSmall, names[:2]
	}
	for _, app := range names {
		for _, tpn := range []int{1, 2} {
			var exec [2]int64
			for i, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				c := harness.Config{App: app, Size: size, Mode: mode, Nodes: 8, ThreadsPerNode: tpn}
				exec[i] = p.clusterCell(fmt.Sprintf("%s/%s/t%d", app, mode, tpn), c, false)
			}
			if exec[0] > 0 && exec[1] > 0 {
				p.overhead[tpn-1] = append(p.overhead[tpn-1], float64(exec[1])/float64(exec[0]))
			}
		}
	}
}

// tierScale runs BENCH_PR9's two scale cells, each healthy and killed:
// falseshare on the 512-node tier (hashed directory) and counter on the
// 64-node tier, medium size, unaudited.
func tierScale(p *pass) {
	size := harness.SizeMedium
	if p.quick {
		size = harness.SizeSmall
	}
	for _, c := range []struct {
		app  string
		tier harness.Tier
	}{{"falseshare", harness.TierXLarge}, {"counter", harness.TierLarge}} {
		for _, kill := range []bool{false, true} {
			cfg := harness.Config{App: c.app, Size: size, Mode: svm.ModeFT, Tier: c.tier, ThreadsPerNode: 1}
			if p.quick {
				cfg.Nodes = 64 // the tier's knobs on a smaller cluster
			}
			key := fmt.Sprintf("%s/%s/healthy", c.app, c.tier)
			if kill {
				key = fmt.Sprintf("%s/%s/killed", c.app, c.tier)
			}
			p.clusterCell(key, cfg, kill)
		}
	}
}

// clusterCell builds, runs and checks one cluster, returning its
// simulated execution time (0 if the cell failed).
func (p *pass) clusterCell(key string, c harness.Config, kill bool) int64 {
	c.Overrides = func(cfg *model.Config) { cfg.Seed = p.seed }
	var exec int64
	p.cell(key, 1, func() (cellRef, error) {
		cfg, err := c.ModelConfig()
		if err != nil {
			return cellRef{}, err
		}
		var w *apps.Workload
		shape := apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize}
		if err := p.call("build", func() (err error) {
			w, err = harness.Build(c.App, c.Size, shape)
			return err
		}); err != nil {
			return cellRef{}, err
		}
		opt := svm.Options{
			Config: cfg, Mode: c.Mode, LockAlgo: c.LockAlgo,
			Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body,
		}
		kt := &killTracer{node: cfg.Nodes / 2}
		if kill {
			opt.Tracer = kt
		}
		var cl *svm.Cluster
		if err := p.call("cluster_new", func() (err error) {
			cl, err = svm.New(opt)
			return err
		}); err != nil {
			return cellRef{}, err
		}
		kt.cl = cl
		if err := p.call("run", cl.Run); err != nil {
			return cellRef{}, err
		}
		if err := p.call("verify", func() error {
			if !cl.Finished() {
				return fmt.Errorf("did not finish")
			}
			if err := w.Err(); err != nil {
				return err
			}
			if kill && !kt.done {
				return fmt.Errorf("kill never fired")
			}
			if c.Mode == svm.ModeFT {
				return cl.VerifyReplicas()
			}
			return nil
		}); err != nil {
			return cellRef{}, err
		}
		p.addCluster(cl)
		m := cl.Metrics().Map()
		ref := cellRef{ExecNs: cl.ExecTime(), Msgs: m["vmmc.msgs_sent"], Bytes: m["vmmc.bytes_sent"], DirBytes: cl.DirectoryBytes()}
		if ph := cl.PhaseTimes(); ph.KillNs > 0 {
			ref.RecoverNs = ph.RecoverNs - ph.KillNs
		}
		exec = ref.ExecNs
		return ref, nil
	})
	return exec
}

// killTracer fail-stops node the second time it emits release.done:
// the kill BENCH_PR9 injected at every tier.
type killTracer struct {
	cl   *svm.Cluster
	node int
	done bool
}

func (k *killTracer) Event(e svm.TraceEvent) {
	if k.done || e.Kind != "release.done" || e.Node != k.node || e.Seq != 2 {
		return
	}
	k.done = true
	k.cl.KillNode(k.node)
}

// sweepEvents is each app's budget of simulated events over its
// verdicts. How much work one verdict is varies widely with the kill
// point and, through lock-backoff jitter, with the seed (counter's
// recording alone ranges over 5-8k events across seeds), so the sweep
// is sized in events rather than in verdicts: that keeps its host cost
// steady across seeds. At these budgets the explored prefix covers each
// recording evenly enough that a pass's allocation spreads 2.6% across
// ten seeds; half of them gave 6.6%, and larger ones no less than 2.5%.
var sweepEvents = map[string]int64{"counter": 1_200_000, "falseshare": 50_000, "kvmicro": 400_000}

// faultSweep is an svmfi sweep: for counter, falseshare and kvmicro
// (small, 4 nodes) it records the failure-free run, then explores
// single-kill boundaries, each under the stride-1 auditor, the flight
// recorder and the causal-replay oracle, until the app's verdicts have
// executed sweepEvents events. The boundaries are sampled evenly over
// the recording and visited in bit-reversed order, so the explored
// prefix spreads over the whole run.
func faultSweep(p *pass) {
	for _, app := range []string{"counter", "falseshare", "kvmicro"} {
		sp := harness.ExploreSpec(harness.Config{
			App: app, Size: harness.SizeSmall, Nodes: 4, ThreadsPerNode: 1, LockAlgo: svm.LockPolling,
			Overrides: func(cfg *model.Config) { cfg.Seed = p.seed },
		})
		// Wrap the spec's constructor to time set-up and to see the
		// cluster each exploration builds.
		var cl *svm.Cluster
		build := sp.New
		sp.New = func() (inst explore.Instance, err error) {
			err = p.call("cluster_new", func() error {
				inst, err = build()
				return err
			})
			cl = inst.Cluster
			return inst, err
		}
		var tr *explore.Trace
		p.cell(app+"/record", 1, func() (cellRef, error) {
			if err := p.call("record", func() (err error) {
				tr, err = explore.Record(sp)
				return err
			}); err != nil {
				return cellRef{}, err
			}
			p.addCluster(cl)
			return cellRef{ExecNs: tr.TimeNs, Events: tr.Events, Boundaries: int64(len(tr.Boundaries)), Fingerprint: tr.Fingerprint}, nil
		})
		if tr == nil {
			continue
		}
		var events int64
		for i, b := range bitReversed(explore.Sample(tr.Boundaries, sweepCandidates)) {
			if p.quick && i == sweepQuick || !p.quick && events >= sweepEvents[app] {
				break
			}
			p.cell(app+"/"+b.ID(), 1, func() (cellRef, error) {
				var v explore.Verdict
				p.call("verdict", func() error {
					v = explore.Explore(sp, b, tr.Budget())
					return nil
				})
				events += v.Events
				p.counts["explore.verdicts"]++
				p.counts["explore.verdict_events"] += float64(v.Events)
				p.counts["explore.requested"] += float64(len(v.Schedule))
				p.counts["explore.injected"] += float64(len(v.Injected))
				if !v.Pass {
					return cellRef{}, fmt.Errorf("verdict failed: %s", v.Err)
				}
				p.addCluster(cl)
				return cellRef{ExecNs: v.TimeNs, Events: v.Events, Recoveries: v.Recoveries, Fingerprint: v.Fingerprint}, nil
			})
		}
	}
}

// bitReversed reorders bs by bit-reversed index, so that every prefix
// of the result is spread evenly over bs.
func bitReversed(bs []explore.Boundary) []explore.Boundary {
	bits := 0
	for 1<<bits < len(bs) {
		bits++
	}
	out := make([]explore.Boundary, 0, len(bs))
	for i := 0; i < 1<<bits; i++ {
		r := 0
		for j := 0; j < bits; j++ {
			r |= (i >> j & 1) << (bits - 1 - j)
		}
		if r < len(bs) {
			out = append(out, bs[r])
		}
	}
	return out
}

// serveSpecs is the svmserve matrix: every chaos scenario under oracle
// and probe detection, 4 nodes, a kill of node 1 40% into the stream.
// The seed drives both the engine and the arrival stream; seed 1 gives
// svmserve's defaults (engine seed 1, arrival seed 7).
func serveSpecs(seed int64, quick bool) []serve.Spec {
	base := serve.DefaultSpec()
	base.Requests = serveRequests
	if quick {
		base.Requests = serveQuick
	}
	base.Seed = seed
	base.ArrivalSeed = uint64(seed) + 6
	base.KillAtNs = int64(base.Requests) * base.MeanGapNs * 2 / 5
	var specs []serve.Spec
	for _, sc := range harness.ChaosScenarios() {
		for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
			sp := base
			sp.Scenario, sp.Chaos, sp.Detect = sc.Name, sc.Chaos, det
			specs = append(specs, sp)
		}
	}
	return specs
}

// serveChaos runs the svmserve matrix through serve.RunCell, which
// builds each cell's driver and cluster itself: that build is part of
// wall_s here, and set-up is the separately timed input build
// (serve.NewDriver). RunCell does not expose its cluster, so the first
// pass also replays each cell, untimed, on a cluster the benchmark
// builds the same way, for the event count and layer counters, and
// checks that the replay served the same requests at the same times.
func serveChaos(p *pass) {
	pageSize := model.Default().PageSize
	for _, sp := range serveSpecs(p.seed, p.quick) {
		// Each request is one operation; a cell that errs fails them all.
		want := int64(sp.Nodes * sp.ThreadsPerNode * sp.Requests)
		key := sp.Scenario + "/" + sp.Detect.String()
		p.cell(key, int(want), func() (cellRef, error) {
			if err := p.call("build", func() error {
				_, err := serve.NewDriver(sp, pageSize)
				return err
			}); err != nil {
				return cellRef{}, err
			}
			var r serve.Result
			p.call("serve_cell", func() error {
				r = serve.RunCell(sp)
				return nil
			})
			if r.Err != nil {
				return cellRef{}, r.Err
			}
			if r.Completed != want {
				p.failed += int(want - r.Completed)
				p.fails = append(p.fails, fmt.Sprintf("%s: %d of %d requests never completed", key, want-r.Completed, want))
			}
			p.counts["serve.completed"] += float64(r.Completed)
			p.counts["serve.exec_ns"] += float64(r.ExecNs)
			p.hist.Merge(r.Hist)
			ph := r.Phases
			unavail := ph.UndetectedNs + ph.DetectingNs + ph.RecoveryNs + ph.RewarmNs
			p.unavailNs += unavail
			ref := cellRef{ExecNs: r.ExecNs, Completed: r.Completed, UnavailNs: unavail, Fingerprint: fingerprint(r.Report())}
			if r.Milestones.RecoverNs > 0 {
				ref.RecoverNs = r.Milestones.RecoverNs - r.Milestones.KillNs
			}
			if p.first {
				if err := p.untimed(func() error { return p.replayServe(sp, r) }); err != nil {
					return cellRef{}, fmt.Errorf("replay: %w", err)
				}
			}
			return ref, nil
		})
	}
}

// replayServe runs sp the way serve.RunCell does, on a cluster the
// benchmark can read, folds its counters into the pass and checks that
// it reproduces RunCell's result.
func (p *pass) replayServe(sp serve.Spec, want serve.Result) error {
	cfg := model.Default()
	cfg.Nodes, cfg.ThreadsPerNode = sp.Nodes, sp.ThreadsPerNode
	cfg.Detection, cfg.Chaos = sp.Detect, sp.Chaos
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	d, err := serve.NewDriver(sp, cfg.PageSize)
	if err != nil {
		return err
	}
	w := d.Workload()
	cl, err := svm.New(svm.Options{Config: cfg, Mode: svm.ModeFT, Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body})
	if err != nil {
		return err
	}
	cl.EnableFlightRecorder(64)
	if sp.KillAtNs > 0 {
		cl.Engine().At(sp.KillAtNs, func() { cl.KillNode(sp.Victim) })
	}
	if err := cl.Run(); err != nil {
		return err
	}
	// RunCell's own cluster is gone when it returns; this one is the
	// serving cell's heap at its largest.
	p.sampleHeap()
	h := obs.NewHistogram()
	for tid := 0; tid < sp.Nodes*sp.ThreadsPerNode; tid++ {
		arrive := d.Arrivals(tid)
		for i, done := range d.Completions(tid) {
			if done > 0 {
				h.Record(done - arrive[i])
			}
		}
	}
	if cl.ExecTime() != want.ExecNs || h.Count() != want.Completed || fingerprint(h.Buckets()) != fingerprint(want.Hist.Buckets()) {
		return fmt.Errorf("exec %d ns, %d served; RunCell: exec %d ns, %d served", cl.ExecTime(), h.Count(), want.ExecNs, want.Completed)
	}
	p.addCluster(cl)
	return nil
}

// fingerprint hashes v's JSON encoding.
func fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is hashed
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
