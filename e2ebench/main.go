// Command e2ebench measures the host time this repository takes to
// regenerate three paper artifacts — the Fig. 12 sweep, the Fig. 13 sweep
// and the Table 1 Monte Carlo campaign — through their public entry points,
// checks every output row against committed golden digests, and, in traced
// mode, explains that time layer by layer. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	run.sh --workload fig12|fig13|table1 --seed N --seconds S --trace 0|1
//	run.sh steady [-runs 10]
//	run.sh golden
//
// The last line of a measurement run's standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"paper_err_pp", "pp"},
}

// perLayer are the metrics of a traced run (--trace 1), derived in
// layerMetrics.
var perLayer = []metricDef{
	{"sim.setup.first_cell_s", "s"},
	{"sim.setup.fork_cell_s", "s"},
	{"sim.setup.alloc_mb", "MB"},
	{"sim.run_s", "s"},
	{"sim.run.ns_per_instr.memint", "ns/instr"},
	{"sim.run.ns_per_instr.light", "ns/instr"},
	{"sim.run.ns_per_instr.L", "ns/instr"},
	{"sim.run.ns_per_instr.M", "ns/instr"},
	{"sim.run.ns_per_instr.H", "ns/instr"},
	{"sim.run.allocs_per_kinstr", "1/kinstr"},
	{"sim.run.alloc_bytes_per_instr", "B/instr"},
	{"sim.alone_s", "s"},
	{"ff.skip_share", "ratio"},
	{"ff.plan_yield", "ratio"},
	{"ff.disengages", "count"},
	{"ff.lag_flushes", "count"},
	{"ff.lag_share", "ratio"},
	{"sim.instructions", "count"},
	{"sim.cpu_cycles", "count"},
	{"sim.dram_cycles", "count"},
	{"mem.reads", "count"},
	{"mem.writes", "count"},
	{"mem.write_share", "ratio"},
	{"mem.row_hit_rate", "ratio"},
	{"mem.cap_trips", "count"},
	{"mem.timeout_closes", "count"},
	{"mem.refreshes", "count"},
	{"llc.accesses", "count"},
	{"llc.miss_rate", "ratio"},
	{"workload.ns_per_record", "ns"},
	{"cache.ns_per_access", "ns"},
	{"core.profile_s", "s"},
	{"spice.mc_s.baseline", "s"},
	{"spice.mc_s.maxcap", "s"},
	{"spice.mc_s.highperf", "s"},
	{"spice.mc.ns_per_draw", "ns"},
	{"spice.refw_s", "s"},
	{"spice.allocs_per_draw", "1/draw"},
	{"engine.self_s", "s"},
	{"trace.slowdown", "ratio"},
}

// minReps is the fewest artifact calls an untraced run makes, whatever
// --seconds says.
const minReps = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "fig12, fig13 or table1")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "how long the untraced run keeps repeating the artifact call")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	a, err := newArtifact(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	ck, err := newChecker(a.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	var metrics map[string]float64
	var defs []metricDef
	if *traced == 1 {
		metrics, err = runTraced(a, ck, *seed, *outDir)
		defs = perLayer
	} else {
		metrics, err = runE2E(a, ck, time.Duration(*seconds)*time.Second)
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	ck.report()
	fmt.Printf("%s seed=%d golden=%s correct=%v\n", a.name, *seed, ck.goldenState(), ck.correct())
	fmt.Printf("  %-32s %.6g (%d of %d rows)\n", "error_rate", ratio(float64(ck.failed), float64(ck.attempted)), ck.failed, ck.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			fmt.Fprintln(os.Stderr, "e2ebench: metric not measured:", d.name)
			return 1
		}
		fmt.Printf("  %-32s %.6g %s\n", d.name, v, d.unit)
		out[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ck.correct(), ck.attempted, ck.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process:
// on Linux, writing 5 to clear_refs resets VmHWM.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runE2E repeats [artifact call, setup pass(es)] until the time budget is
// spent (at least minReps times) and reports the medians. Each timing is
// one contiguous interval, taken after a forced GC so every repetition
// starts from the same heap state; a setup sample is one interval over
// setupPasses passes, divided by their number. The peak RSS sample of a
// repetition is the peak reached during its artifact call.
func runE2E(a *artifact, ck *checker, budget time.Duration) (map[string]float64, error) {
	start := time.Now()
	var walls, cpus, setups, rss []float64
	var paperErrPP float64
	var last time.Duration
	for rep := 0; rep < minReps || time.Since(start)+last <= budget; rep++ {
		repStart := time.Now()
		// Collect and return freed memory first, so every call's peak
		// starts from the same resident set.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0, t0 := cpuTime(), time.Now()
		out, err := a.call()
		wall, cpu := time.Since(t0), cpuTime()-c0
		peak, rssErr := peakRSSMB()
		if rssErr != nil {
			return nil, rssErr
		}
		rss = append(rss, peak)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		label := fmt.Sprintf("call %d", rep+1)
		ck.rows(label, out.rows, err)
		if err == nil {
			if paperErrPP, err = ck.paper(label, out.series); err != nil {
				return nil, err
			}
		}

		runtime.GC()
		t0 = time.Now()
		for i := 0; i < a.setupPasses; i++ {
			if err := a.setup(); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", a.name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(a.setupPasses))
		last = time.Since(repStart)
	}
	fmt.Printf("%s: %d calls, wall_s samples %v, setup_s samples %v\n",
		a.name, len(walls), roundAll(walls), roundAll(setups))
	return map[string]float64{
		"wall_s":       median(walls),
		"cpu_s":        median(cpus),
		"setup_s":      median(setups),
		"peak_rss_mb":  median(rss),
		"paper_err_pp": paperErrPP,
	}, nil
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

// traceFile is what a traced run writes next to its CPU profile.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	E2EWallS    []float64          `json:"e2e_wall_s"`
	TracedS     float64            `json:"traced_s"`
	Slowdown    float64            `json:"slowdown"`
	Layers      []layerRow         `json:"layers"`
	Metrics     map[string]float64 `json:"metrics"`
	Determinism map[string]any     `json:"determinism"`
	Spans       []span             `json:"spans"`
}

// runTraced makes traced pass 1 between two untraced artifact calls, then
// traced pass 2 under the CPU profiler, and checks that all four produced
// the same rows and that both passes did the same simulated work. Per-layer
// metrics come from pass 1. Tracing's cost is pass 1's time over the mean
// of the two untraced calls around it, so drift of the host over the run
// cancels to first order.
func runTraced(a *artifact, ck *checker, seed int64, outDir string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", a.name, seed))
	start := time.Now()

	var e2eWalls []float64
	untraced := func(label string) error {
		runtime.GC()
		t0 := time.Now()
		out, err := a.call()
		e2eWalls = append(e2eWalls, time.Since(t0).Seconds())
		ck.rows(label, out.rows, err)
		if err != nil {
			return nil // counted as failed rows
		}
		_, err = ck.paper(label, out.series)
		return err
	}

	if err := untraced("e2e call 1"); err != nil {
		return nil, err
	}
	runtime.GC()
	t1 := newTracer(start, a.name+"-pass1")
	rows, err := a.traced(t1)
	ck.rows("traced pass 1", rows, err)
	if err := untraced("e2e call 2"); err != nil {
		return nil, err
	}
	tracedS := t1.spans[0].dur().Seconds()
	slowdown := ratio(tracedS, (e2eWalls[0]+e2eWalls[1])/2)
	rootSelfS := rootSelf(t1.spans, 1).Seconds()
	if a.layers != nil {
		if err := a.layers(t1); err != nil {
			return nil, fmt.Errorf("%s layer drivers: %w", a.name, err)
		}
	}

	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	runtime.GC()
	t2 := newTracer(start, a.name+"-pass2")
	rows, err = a.traced(t2)
	pprof.StopCPUProfile()
	ck.rows("traced pass 2", rows, err)
	if err := prof.Close(); err != nil {
		return nil, err
	}

	countsRepeat := t1.w.counts == t2.w.counts
	if !countsRepeat {
		ck.problem("simulated work counts differ between traced passes: %+v vs %+v", t1.w.counts, t2.w.counts)
	}
	allocsRepeat := t1.w.allocs == t2.w.allocs

	metrics := layerMetrics(&t1.w, rootSelfS, slowdown)
	layers := layerTable(t1.spans)
	fmt.Printf("%s traced: e2e calls %.3fs and %.3fs, traced pass %.3fs between them, slowdown %.3fx\n",
		a.name, e2eWalls[0], e2eWalls[1], tracedS, slowdown)
	fmt.Printf("  %-16s %10s %7s\n", "layer", "self_s", "spans")
	for _, l := range layers {
		fmt.Printf("  %-16s %10.4f %7d\n", l.Layer, l.SelfS, l.Spans)
	}
	fmt.Printf("  counts repeat: %v; allocation counts repeat: %v (reported as rates either way)\n",
		countsRepeat, allocsRepeat)
	tf := traceFile{
		Workload: a.name, Seed: seed,
		E2EWallS: e2eWalls, TracedS: tracedS, Slowdown: slowdown,
		Layers: layers, Metrics: metrics,
		Determinism: map[string]any{
			"counts_repeat":        countsRepeat,
			"allocs_repeat":        allocsRepeat,
			"rows_match_e2e_calls": ck.failed == 0,
		},
		Spans: append(t1.spans, t2.spans...),
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".trace.json", b, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("  wrote %s.trace.json and %s.cpu.pprof\n", base, base)
	return metrics, nil
}

// goldenMain regenerates golden.json at defaultSeed. A fidelity change
// regenerates the goldens in a benchmark change of its own.
func goldenMain(args []string) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	path := fs.String("o", filepath.Join("e2ebench", "golden.json"), "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g := goldenFile{Seed: defaultSeed, Scale: scale(), Workloads: map[string]goldenWorkload{}}
	for _, name := range []string{"fig12", "fig13", "table1"} {
		a, err := newArtifact(name, defaultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		out, err := a.call()
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", name, err)
			return 1
		}
		refs, err := loadPaper(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		pe, err := paperErr(refs, out.series)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		gw := goldenWorkload{PaperErrPP: pe, Rows: map[string]string{}}
		for _, r := range out.rows {
			if _, dup := gw.Rows[r.Name]; dup {
				fmt.Fprintln(os.Stderr, "e2ebench: duplicate row name", r.Name)
				return 1
			}
			gw.Rows[r.Name] = r.Digest
		}
		g.Workloads[name] = gw
		fmt.Printf("%s: %d rows, paper_err_pp %.4f\n", name, len(out.rows), pe)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.WriteFile(*path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}
