package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// Span kinds. Setup spans build inputs and clusters; sim spans run the
// simulations (their host time, less any setup nested inside, is the
// denominator of events_per_s).
var (
	setupSpans = map[string]bool{"build": true, "cluster_new": true}
	simSpans   = map[string]bool{"run": true, "record": true, "verdict": true, "serve_cell": true}
)

// span is one timed call into the program, or the cell enclosing such
// calls. Times are nanoseconds since the run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a cell span, which has no parent
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"` // the cell's key, on cell spans
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// pass is one execution of a workload's fixed work. Every call the
// benchmark makes into the program goes through pass.call, which times
// it; a traced pass also records a span for it, and the first pass
// samples the reachable heap after each outermost simulation call.
type pass struct {
	seed   int64
	quick  bool
	first  bool // the run's first pass, which also gathers counters
	origin time.Time
	traced bool
	spans  []span
	open   []int // indexes into spans of the open spans, outermost first
	cellID int
	nextID *int // run-wide span and cell id counter

	totalNs  int64
	cpuNs    int64
	alloc    uint64
	gcCycles uint64
	setupNs  int64
	// untimedNs and untimedAlloc are the host time and allocation of
	// work done only to read counters, left out of every host figure.
	untimedNs    int64
	untimedAlloc uint64
	setupAlloc   uint64
	buildNs      int64
	clusterNs    int64
	simNs        int64
	peakHeap     uint64
	rehomeNs     int64
	simDepth     int // open sim spans

	ops, failed int
	fails       []string

	// counts holds the deterministic (virtual) totals of the pass: the
	// clusters' counters plus workload-level figures.
	counts map[string]float64
	// cells is the per-cell virtual record checked against the first
	// pass and, at the default seed, the stored reference.
	cells map[string]cellRef
	// overhead holds ext/base execution-time ratios (paper_grid), by
	// threads per node less one.
	overhead [2][]float64
	// recoverNs lists kill-to-recovery.done times of recovered cells.
	recoverNs []int64
	// hist merges every served request's latency (serve_chaos).
	hist *obs.Histogram
	// unavailNs sums the serving cells' unavailable time.
	unavailNs int64
}

func newPass(seed int64, quick, first, traced bool, origin time.Time, nextID *int) *pass {
	return &pass{
		seed: seed, quick: quick, first: first, traced: traced, origin: origin, nextID: nextID,
		counts: map[string]float64{}, cells: map[string]cellRef{}, hist: obs.NewHistogram(),
	}
}

func (p *pass) id() int {
	*p.nextID++
	return *p.nextID
}

// cell runs body as one cell of the workload, standing for ops
// operations (1 for a cluster run or verdict, its requests for a serving
// cell). A body error fails all of them; a body may also count partial
// failures itself.
func (p *pass) cell(key string, ops int, body func() (cellRef, error)) {
	p.cellID = p.id()
	idx := -1
	if p.traced {
		idx = len(p.spans)
		p.spans = append(p.spans, span{ID: p.cellID, Cell: p.cellID, Name: "cell", Label: key, StartNs: p.now()})
	}
	ref, err := body()
	if idx >= 0 {
		p.spans[idx].EndNs = p.now()
	}
	p.ops += ops
	if _, dup := p.cells[key]; dup && err == nil {
		err = fmt.Errorf("duplicate cell key")
	}
	if err != nil {
		p.failed += ops
		p.fails = append(p.fails, fmt.Sprintf("%s: %v", key, err))
		return
	}
	p.cells[key] = ref
}

func (p *pass) now() int64 { return int64(time.Since(p.origin)) }

// call times fn as the named span of the current cell.
func (p *pass) call(name string, fn func() error) error {
	idx := -1
	if p.traced {
		parent := p.cellID
		if len(p.open) > 0 {
			parent = p.spans[p.open[len(p.open)-1]].ID
		}
		idx = len(p.spans)
		p.spans = append(p.spans, span{ID: p.id(), Parent: parent, Cell: p.cellID, Name: name, StartNs: p.now()})
		p.open = append(p.open, idx)
	}
	setup := setupSpans[name]
	var a0 uint64
	if setup {
		a0 = readUint(mAllocs)
	}
	if simSpans[name] {
		p.simDepth++
	}
	t0 := time.Now()
	err := fn()
	d := int64(time.Since(t0))
	if simSpans[name] {
		p.simDepth--
		p.simNs += d
	}
	if setup {
		p.setupNs += d
		p.setupAlloc += readUint(mAllocs) - a0
		if name == "build" {
			p.buildNs += d
		} else {
			p.clusterNs += d
		}
		if p.simDepth > 0 {
			// Explorer set-up runs inside record/verdict spans.
			p.simNs -= d
		}
	}
	if idx >= 0 {
		p.spans[idx].EndNs = p.now()
		p.open = p.open[:len(p.open)-1]
	}
	if p.first && simSpans[name] && p.simDepth == 0 {
		p.untimed(p.sampleHeap)
	}
	return err
}

// untimed runs fn outside every host figure.
func (p *pass) untimed(fn func() error) error {
	a0, t0 := readUint(mAllocs), time.Now()
	err := fn()
	p.untimedNs += int64(time.Since(t0))
	p.untimedAlloc += readUint(mAllocs) - a0
	return err
}

// sampleHeap records the heap still reachable after a full collection.
// The collection makes the figure exact and repeatable; the live heap
// the runtime reports between collections is whatever its last
// collection saw, which depends on when that one happened to run.
func (p *pass) sampleHeap() error {
	runtime.GC()
	if h := readUint(mLiveHeap); h > p.peakHeap {
		p.peakHeap = h
	}
	return nil
}

// addCluster folds a finished cluster's counters into the pass totals.
func (p *pass) addCluster(cl *svm.Cluster) {
	for name, v := range cl.Metrics().Map() {
		p.counts[name] += float64(v)
	}
	p.counts["sim.events"] += float64(cl.Engine().Events())
	p.counts["sim.exec_ns"] += float64(cl.ExecTime())
	p.counts["proto.dir_bytes"] += float64(cl.DirectoryBytes())
	bd := cl.AvgBreakdown()
	for _, c := range svm.Components() {
		p.counts["svm.virt_"+c.String()+"_ns"] += float64(bd.Comp[c])
	}
	p.rehomeNs += cl.RehomeWallNs()
	if ph := cl.PhaseTimes(); ph.KillNs > 0 && ph.RecoverNs > 0 {
		p.recoverNs = append(p.recoverNs, ph.RecoverNs-ph.KillNs)
	}
}

// Runtime metrics read at span boundaries and around passes.
const (
	mLiveHeap = "/gc/heap/live:bytes"
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
