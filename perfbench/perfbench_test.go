package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// update names a workload whose entry in reference.json to rewrite. It
// takes one workload per process: checkpoint blob sizes, a modeled cost,
// depend on the encoding/gob type ids the process has already assigned,
// so a cell's virtual figures hold only for a process that ran nothing
// but its own workload before it, as a benchmark run does.
var update = flag.String("update", "", "rewrite this workload's reference.json entry from a full-length pass at the default seed")

// TestChargeLayers pins the profile charging rule on a hand-built
// profile.
func TestChargeLayers(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := []sample{
		// Innermost internal frame: runtime frames go to their caller.
		{[]string{"runtime.memmove", "ftsvm/internal/mem.Diff", "ftsvm/internal/svm.(*Thread).Release", "ftsvm/internal/sim.(*Engine).Run"}, 1 * ms},
		{[]string{"runtime.chanrecv1", "ftsvm/internal/sim.(*Proc).Yield"}, 1 * ms},
		// The scheduler after a handoff has lost its caller: sim.
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 1 * ms},
		// Checks are inclusive: the auditor claims the directory lookup
		// it called.
		{[]string{"ftsvm/internal/proto.(*HomeMap).Replicas", "ftsvm/internal/svm.(*auditor).checkPages", "ftsvm/internal/svm.(*auditor).afterEvent", "ftsvm/internal/sim.(*Engine).Run"}, 4 * ms},
		{[]string{"runtime.mallocgc", "ftsvm/internal/oracle.(*Log).Commit", "ftsvm/internal/svm.(*Cluster).commitInterval"}, 8 * ms},
		{[]string{"ftsvm/internal/explore.ExploreSchedule.func1", "ftsvm/internal/obs.(*Recorder).Record", "ftsvm/internal/svm.(*Cluster).trace"}, 16 * ms},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 32 * ms},
		// Frames of no known layer, e.g. a renamed package, stay visible.
		{[]string{"runtime.memmove", "ftsvm/renamed/sim.(*Engine).Run"}, 64 * ms},
		{nil, 128 * ms},
	}
	got := chargeLayers(samples)
	want := map[string]int64{
		"mem": 1 * ms, "sim": 2 * ms, layerAudit: 4 * ms, layerOracle: 8 * ms,
		layerRecorder: 16 * ms, layerGC: 32 * ms, layerUnattributed: 192 * ms,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chargeLayers = %v, want %v", got, want)
	}
}

//go:noinline
func burn(n int) float64 {
	x := 0.0
	for i := 0; i < n; i++ {
		x += math.Sqrt(float64(i))
	}
	return x
}

// TestParseProfile decodes a real CPU profile and finds the function
// that burned the CPU.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		burn(1 << 16)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range samples {
		total += s.ns
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".burn") {
				inBurn += s.ns
				break
			}
		}
	}
	if total == 0 || inBurn < total/2 {
		t.Fatalf("%d samples, %v total, %v in burn", len(samples), time.Duration(total), time.Duration(inBurn))
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(specNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, specNames)
	}
	var e2e, layer []string
	for _, m := range endToEnd {
		e2e = append(e2e, fmt.Sprint(m.name, m.unit, m.better, m.bound))
	}
	for _, m := range spec.EndToEnd {
		layer = append(layer, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
	}
	if fmt.Sprint(e2e) != fmt.Sprint(layer) {
		t.Errorf("end_to_end:\n code %v\n json %v", e2e, layer)
	}
	e2e, layer = nil, nil
	for _, m := range perLayer {
		e2e = append(e2e, fmt.Sprint(m.name, m.unit, m.better))
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	if fmt.Sprint(e2e) != fmt.Sprint(layer) {
		t.Errorf("per_layer:\n code %v\n json %v", e2e, layer)
	}
}

// TestReferenceMatchesRecordedGates confirms the stored reference
// against the repository's recorded gates: BENCH_PR1's 24 paper-grid
// cells and BENCH_PR9's rows for the two tier_scale cells.
func TestReferenceMatchesRecordedGates(t *testing.T) {
	ref, err := storedReference()
	if err != nil {
		t.Fatal(err)
	}
	ms := func(v float64) int64 { return int64(math.Round(v * 1e6)) }
	var pr1 struct {
		Cells []struct {
			App, Mode      string
			ThreadsPerNode int     `json:"threads_per_node"`
			VMs            float64 `json:"vms"`
			Msgs, Bytes    int64
		}
	}
	readJSON(t, "../BENCH_PR1.json", &pr1)
	if len(pr1.Cells) != 24 {
		t.Fatalf("BENCH_PR1.json has %d cells, want 24", len(pr1.Cells))
	}
	for _, c := range pr1.Cells {
		key := fmt.Sprintf("%s/%s/t%d", c.App, c.Mode, c.ThreadsPerNode)
		got, ok := ref["paper_grid"][key]
		want := cellRef{ExecNs: ms(c.VMs), Msgs: c.Msgs, Bytes: c.Bytes}
		if !ok || got.ExecNs != want.ExecNs || got.Msgs != want.Msgs || got.Bytes != want.Bytes {
			t.Errorf("paper_grid %s: reference %+v, BENCH_PR1 %+v", key, got, want)
		}
	}
	var pr9 struct {
		Cells []struct {
			App, Dir    string
			Nodes       int
			Kill        bool
			VMs         float64 `json:"vms"`
			Msgs, Bytes int64
			DirBytes    int64   `json:"dir_bytes"`
			RecoverMs   float64 `json:"recover_ms"`
		}
	}
	readJSON(t, "../BENCH_PR9.json", &pr9)
	rows := map[string]string{"falseshare/512/hashed": "falseshare/xlarge", "counter/64/flat": "counter/large"}
	matched := 0
	for _, c := range pr9.Cells {
		cell, ok := rows[fmt.Sprintf("%s/%d/%s", c.App, c.Nodes, c.Dir)]
		if !ok {
			continue
		}
		key := cell + "/healthy"
		if c.Kill {
			key = cell + "/killed"
		}
		matched++
		got := ref["tier_scale"][key]
		want := cellRef{ExecNs: ms(c.VMs), Msgs: c.Msgs, Bytes: c.Bytes, DirBytes: c.DirBytes, RecoverNs: ms(c.RecoverMs)}
		if got != want {
			t.Errorf("tier_scale %s: reference %+v, BENCH_PR9 %+v", key, got, want)
		}
	}
	if matched != 4 {
		t.Errorf("matched %d BENCH_PR9 rows, want 4", matched)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		t.Skipf("%s not present", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSelfTest runs every workload at a reduced length twice in one
// process, once untraced and once traced. Each run must pass its
// checks and print every metric with its unit, and the two runs must
// agree exactly on every virtual figure.
func TestSelfTest(t *testing.T) {
	for _, w := range append(append([]workload(nil), workloads...), extraWorkloads...) {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*outcome
			for i, traced := range []bool{false, true} {
				o, err := measure(config{w: w, seed: 3, seconds: 0.01, trace: traced, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if !o.correct() {
					t.Fatalf("run %d failed: %v", i, o.fails)
				}
				var out bytes.Buffer
				if err := o.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				table := endToEnd
				if traced {
					table = perLayer
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(table) {
					t.Errorf("run %d: correct %v, attempted %d, %d metrics", i, res.Correct, res.Attempted, len(res.Metrics))
				}
				for _, m := range table {
					if got, ok := res.Metrics[m.name]; !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("run %d: metric %s printed as %+v, want unit %s", i, m.name, got, m.unit)
					}
				}
				for _, m := range reportedEndToEnd {
					if !strings.Contains(out.String(), fmt.Sprintf("  %-18s ", m.name)) {
						t.Errorf("run %d: report lacks %s", i, m.name)
					}
				}
				runs[i] = o
			}
			a, b := runs[0].first, runs[1].first
			if d := diffCells(a.cells, b.cells); len(d) > 0 {
				t.Errorf("cells differ between runs: %v", d)
			}
			if fmt.Sprint(a.counts) != fmt.Sprint(b.counts) {
				t.Errorf("counters differ between runs:\n %v\n %v", a.counts, b.counts)
			}
			va, vb := runs[0].endToEnd(), runs[1].endToEnd()
			for _, k := range []string{"virt_exec_ms", "ft_overhead_pct", "recover_ms", "p50_us", "p99_us", "p999_us", "kreq_per_s", "unavail_ms"} {
				if va[k] != vb[k] {
					t.Errorf("%s: %v then %v", k, va[k], vb[k])
				}
			}
		})
	}
}

// TestUpdateReference rewrites one workload's reference when run with
// -update <workload>.
func TestUpdateReference(t *testing.T) {
	if *update == "" {
		t.Skip("run with -update <workload> to rewrite its reference.json entry")
	}
	w, ok := workloadByName(*update)
	if !ok {
		t.Fatalf("unknown workload %q", *update)
	}
	ref, err := storedReference()
	if err != nil {
		t.Fatal(err)
	}
	var ids int
	p := newPass(defaultSeed, false, true, false, time.Now(), &ids)
	w.run(p)
	if p.failed > 0 {
		t.Fatalf("%s: %v", w.name, p.fails)
	}
	ref[w.name] = p.cells
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
