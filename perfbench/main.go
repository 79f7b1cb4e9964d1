// Command perfbench is the repository benchmark. It runs one named
// workload of the ftsvm simulator through the program's public entry
// points (harness.Build, svm.New, Cluster.Run and VerifyReplicas,
// harness.ExploreSpec with explore.Record and Explore, serve.RunCell),
// one cell at a time on the serial engine, checks every output, and
// prints a report followed by one JSON line of metrics.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper_grid --seed 1 --seconds 10 --trace 0
//
// A run repeats passes of the workload's fixed work until --seconds have
// elapsed and reports medians over them. The first pass also gathers
// the deterministic (virtual) counters and, at the default seed, is
// checked against the stored reference; every later pass must repeat
// its virtual record exactly. With --trace 0 the JSON line holds the
// end-to-end metrics; with --trace 1 passes alternate between untraced
// and traced (spans plus a CPU profile charged to layers), and the JSON
// line holds the per-layer metrics. The exit code is 0 only if every operation
// succeeded and every check passed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool // reduced length, for the self-test
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper_grid, fault_sweep or serve_chaos (or tier_scale, outside BENCHMARK.json)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the model seed and the serving arrival stream")
	seconds := fs.Float64("seconds", 20, "how long the passes run")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics")
	out := fs.String("out", "", "directory for the full report and spans (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload paper_grid|fault_sweep|serve_chaos|tier_scale, --seconds > 0, --trace 0|1\n")
		return 2
	}
	c := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	o, err := measure(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := o.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := o.write(*out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !o.correct() {
		return 1
	}
	return 0
}

// outcome is everything one run measured.
type outcome struct {
	cfg    config
	first  *pass
	timed  []*pass // untraced passes, the first among them
	traced []*pass
	// layerNs is CPU time by layer, summed over the traced passes.
	layerNs           map[string]int64
	attempted, failed int
	fails             []string
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

// measure runs passes until the window closes.
func measure(c config) (*outcome, error) {
	o := &outcome{cfg: c, layerNs: map[string]int64{}}
	origin := time.Now()
	var ids int
	runPass := func(first, traced bool) (*pass, error) {
		runtime.GC() // start every pass from a collected heap
		p := newPass(c.seed, c.quick, first, traced, origin, &ids)
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		a0, g0, c0 := readUint(mAllocs), readUint(mGCCycles), cpuNs()
		t0 := time.Now()
		c.w.run(p)
		p.totalNs = int64(time.Since(t0))
		p.cpuNs = cpuNs() - c0
		p.alloc, p.gcCycles = readUint(mAllocs)-a0-p.untimedAlloc, readUint(mGCCycles)-g0
		if traced {
			pprof.StopCPUProfile()
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			for layer, ns := range chargeLayers(samples) {
				o.layerNs[layer] += ns
			}
		}
		o.attempted += p.ops
		o.failed += p.failed
		o.fails = append(o.fails, p.fails...)
		return p, nil
	}

	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := c.trace && i%2 == 1
		p, err := runPass(i == 0, traced)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			o.first = p
			if c.seed == defaultSeed && !c.quick {
				ref, err := storedReference()
				if err != nil {
					return nil, err
				}
				for _, d := range diffCells(ref[c.w.name], p.cells) {
					o.failed++
					o.fails = append(o.fails, "reference: "+d)
				}
			}
		}
		// Every pass must repeat the first pass's virtual record exactly.
		for k, got := range p.cells {
			if want, ok := o.first.cells[k]; ok && got != want {
				o.failed++
				o.fails = append(o.fails, fmt.Sprintf("repeat: %s: got %+v, first pass %+v", k, got, want))
			}
		}
		if i > 0 {
			// Only the first pass's virtual record is read again; later
			// passes keep their scalars, so the live heap does not grow
			// with the number of passes.
			p.cells, p.counts, p.hist = nil, nil, nil
		}
		if traced {
			o.traced = append(o.traced, p)
		} else {
			o.timed = append(o.timed, p)
		}
		if time.Now().After(deadline) && (!c.trace || len(o.traced) > 0) {
			break
		}
	}
	return o, nil
}

// median of the per-pass values f(p).
func median(ps []*pass, f func(p *pass) float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the q-quantile of v by nearest rank.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSKB is the process's peak resident set; 0 if unreadable.
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// host describes the machine beside every host-time number.
func host() map[string]any {
	return map[string]any{"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
}

// print writes the human-readable report and, last, the JSON line.
func (o *outcome) print(w io.Writer) error {
	h := host()
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %d untraced + %d traced passes; host num_cpu=%v gomaxprocs=%v %v\n",
		o.cfg.w.name, o.cfg.seed, o.cfg.trace, len(o.timed), len(o.traced), h["num_cpu"], h["gomaxprocs"], h["go"])
	for _, f := range o.fails {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	e2e := o.endToEnd()
	fmt.Fprintln(w, "end to end (host figures are medians over untraced passes):")
	for _, m := range reportedEndToEnd {
		if v, ok := e2e[m.name]; ok {
			fmt.Fprintf(w, "  %-18s %14.6g %-6s %s\n", m.name, v, m.unit, m.note)
		} else {
			fmt.Fprintf(w, "  %-18s %14s %-6s %s\n", m.name, "n/a", m.unit, m.note)
		}
	}
	metrics, table := e2e, endToEnd
	if o.cfg.trace {
		metrics, table = o.perLayer(), perLayer
		fmt.Fprintln(w, "per layer (host figures are per traced pass):")
		for _, m := range table {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, metrics[m.name], m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, map[string]value{}}
	for _, m := range table {
		v, ok := metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err // a non-finite metric
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// write saves the full report, with the traced passes' spans, under dir.
func (o *outcome) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans [][]span
	for _, p := range o.traced {
		spans = append(spans, p.spans)
	}
	var passes []map[string]any
	for _, p := range append(append([]*pass(nil), o.timed...), o.traced...) {
		passes = append(passes, map[string]any{
			"first": p.first, "traced": p.traced, "total_ns": p.totalNs, "setup_ns": p.setupNs, "untimed_ns": p.untimedNs,
			"sim_ns": p.simNs, "cpu_ns": p.cpuNs, "alloc": p.alloc, "peak_heap": p.peakHeap,
		})
	}
	rep := map[string]any{
		"passes": passes, "max_rss_kb": maxRSSKB(),
		"workload": o.cfg.w.name, "seed": o.cfg.seed, "trace": o.cfg.trace, "host": host(),
		"attempted": o.attempted, "failed": o.failed, "fails": o.fails,
		"end_to_end": o.endToEnd(), "layer_ns": o.layerNs, "spans": spans,
	}
	if o.cfg.trace {
		rep["per_layer"] = o.perLayer()
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if o.cfg.trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.cfg.w.name, o.cfg.seed, trace)), b, 0o644)
}
