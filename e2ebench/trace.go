package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

// span is one timed call across a layer boundary. Spans are recorded from
// the benchmark's own code around calls into each layer's public functions;
// the program itself is not instrumented.
type span struct {
	ID     int    `json:"id"`     // unique within its trace
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`  // shared by every span of one artifact pass
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// counts is what the simulated system (or circuit model) did. Every field
// is deterministic for a given seed, so two traced passes must agree
// exactly, and a change that only speeds the program up must leave them all
// unchanged.
type counts struct {
	Instructions, CPUCycles, DRAMCycles uint64
	CoreCycles                          uint64 // Σ cores × CPU cycles
	Reads, Writes                       uint64
	RowHits, RowAccesses                uint64
	CapTrips, TimeoutCloses, Refreshes  uint64
	LLCAccesses, LLCMisses              uint64
	FFSkips, FFSkipped                  int64
	FFAttempts, FFDisengages            int64
	FFLagFlushes, FFLaggedCoreCycles    int64
	MCDraws                             uint64
}

// allocs are allocation counts. The runtime may perturb them, so they are
// compared between passes but reported as timing-class rates.
type allocs struct {
	runMallocs, runBytes, setupBytes, mcMallocs uint64
}

// work is everything one traced pass accumulates.
type work struct {
	counts
	allocs
	// Records driven through the isolated layer drivers.
	genRecords, cacheAccesses          uint64
	classInstr                         map[string]uint64
	classRunNS                         map[string]int64
	mcNS                               map[string]int64
	firstCellNS, forkCellNS, runNS     int64
	aloneNS, genNS, cacheNS, profileNS int64
	refwNS, mcTotalNS                  int64
}

// tracer keeps spans and counters in memory until the benchmark ends.
type tracer struct {
	t0    time.Time
	trace string
	spans []span
	w     work
}

func newTracer(t0 time.Time, trace string) *tracer {
	return &tracer{t0: t0, trace: trace, w: work{
		classInstr: map[string]uint64{},
		classRunNS: map[string]int64{},
		mcNS:       map[string]int64{},
	}}
}

func (t *tracer) begin(name, layer string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: t.trace,
		Name: name, Layer: layer, Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

// cell builds and runs one sweep cell, timing NewSystem and Run separately
// and folding the result's counters into the pass totals.
func (t *tracer) cell(parent int, profiles []workload.Profile, clr core.Config, opts sim.Options, first bool, class string) (sim.Result, error) {
	c := t.begin("cell "+cellName(clr), "harness", parent)
	defer t.end(c)
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns := t.begin("sim.NewSystem", "sim.setup", c)
	sys, err := sim.NewSystem(profiles, clr, opts)
	d := t.end(ns)
	if err != nil {
		return sim.Result{}, err
	}
	if first {
		t.w.firstCellNS += d
	} else {
		t.w.forkCellNS += d
	}
	runtime.ReadMemStats(&m1)
	rs := t.begin("sim.System.Run", "sim.run", c)
	res := sys.Run()
	d = t.end(rs)
	runtime.ReadMemStats(&m2)
	if res.TimedOut {
		return res, fmt.Errorf("%s under %s hit the cycle bound", profiles[0].Name, cellName(clr))
	}
	w := &t.w
	w.runNS += d
	w.setupBytes += m1.TotalAlloc - m0.TotalAlloc
	w.runMallocs += m2.Mallocs - m1.Mallocs
	w.runBytes += m2.TotalAlloc - m1.TotalAlloc
	var instr uint64
	for _, pc := range res.PerCore {
		instr += pc.Instructions
	}
	w.classInstr[class] += instr
	w.classRunNS[class] += d
	w.Instructions += instr
	w.CPUCycles += uint64(res.CPUCycles)
	w.DRAMCycles += uint64(res.DRAMCycles)
	w.CoreCycles += uint64(res.CPUCycles) * uint64(len(profiles))
	w.Reads += res.Mem.ReadsServed
	w.Writes += res.Mem.WritesServed
	w.RowHits += res.Mem.RowBuffer.Hits
	w.RowAccesses += res.Mem.RowBuffer.Total()
	w.CapTrips += res.Mem.CapTrips
	w.TimeoutCloses += res.Mem.TimeoutCloses
	w.Refreshes += res.Mem.Refreshes
	w.LLCAccesses += res.LLC.Hits + res.LLC.Misses + res.LLC.Merged
	w.LLCMisses += res.LLC.Misses
	skips, skipped := sys.FFStats()
	attempts, disengages := sys.FFGovernorStats()
	flushes, lagged := sys.FFLagStats()
	w.FFSkips += skips
	w.FFSkipped += skipped
	w.FFAttempts += attempts
	w.FFDisengages += disengages
	w.FFLagFlushes += flushes
	w.FFLaggedCoreCycles += lagged
	return res, nil
}

func cellName(c core.Config) string {
	if !c.Enabled {
		return "baseline"
	}
	return fmt.Sprintf("hp%.0f%%", c.HPFraction*100)
}

// tracedFig12 re-drives the Fig. 12 sweep cell by cell in the driver's
// order, with the driver's per-row warm cache, and rebuilds each row.
func tracedFig12(t *tracer, profiles []workload.Profile, opts sim.Options) ([]row, error) {
	root := t.begin("fig12", "engine", 0)
	defer t.end(root)
	n := len(sim.HPFractions)
	var rows []row
	for _, p := range profiles {
		rs := t.begin("row "+p.Name, "harness", root)
		class := "light"
		if p.MemIntensive {
			class = "memint"
		}
		o := opts
		o.Warmup = sim.NewWarmupCache()
		ps := []workload.Profile{p}
		base, err := t.cell(rs, ps, core.Baseline(), o, true, class)
		if err != nil {
			return nil, err
		}
		r := sim.SingleRow{
			Name:        p.Name,
			BaselineIPC: base.PerCore[0].IPC(),
			MPKI:        base.PerCore[0].MPKI(),
			NormIPC:     make([]float64, n),
			NormEnergy:  make([]float64, n),
			NormPower:   make([]float64, n),
			RowHitRate:  make([]float64, n),
			BankUtil:    make([]float64, n),
		}
		for i, frac := range sim.HPFractions {
			res, err := t.cell(rs, ps, clrConfig(frac), o, false, class)
			if err != nil {
				return nil, err
			}
			r.NormIPC[i] = res.PerCore[0].IPC() / r.BaselineIPC
			r.NormEnergy[i] = res.Energy.Total() / base.Energy.Total()
			r.NormPower[i] = res.PowerMW / base.PowerMW
			r.RowHitRate[i] = res.Mem.RowBuffer.HitRate()
			r.BankUtil[i] = res.BankUtil
		}
		t.end(rs)
		rows = append(rows, fig12Row(r))
	}
	return rows, nil
}

// tracedFig13 re-drives the Fig. 13 sweep: the alone runs through
// sim.AloneIPCs, then every mix's cells with the driver's per-mix warm cache.
func tracedFig13(t *tracer, mixes []groupedMix, opts sim.Options) ([]row, error) {
	root := t.begin("fig13", "engine", 0)
	defer t.end(root)
	as := t.begin("sim.AloneIPCs", "sim.alone", root)
	alone, err := sim.AloneIPCs(allMixes(mixes), opts)
	t.w.aloneNS += t.end(as)
	if err != nil {
		return nil, err
	}
	n := len(sim.HPFractions)
	var rows []row
	for _, gm := range mixes {
		m := gm.mix
		rs := t.begin("mix "+gm.group+"/"+m.Name, "harness", root)
		o := opts
		o.Warmup = sim.NewWarmupCache()
		base, err := t.cell(rs, m.Profiles[:], core.Baseline(), o, true, gm.group)
		if err != nil {
			return nil, err
		}
		baseWS := sim.WeightedSpeedup(base, m, alone)
		r := sim.MixRow{
			Name: m.Name, Group: gm.group,
			NormWS:     make([]float64, n),
			NormEnergy: make([]float64, n),
			NormPower:  make([]float64, n),
			RowHitRate: make([]float64, n),
			BankUtil:   make([]float64, n),
		}
		for i, frac := range sim.HPFractions {
			res, err := t.cell(rs, m.Profiles[:], clrConfig(frac), o, false, gm.group)
			if err != nil {
				return nil, err
			}
			r.NormWS[i] = sim.WeightedSpeedup(res, m, alone) / baseWS
			r.NormEnergy[i] = res.Energy.Total() / base.Energy.Total()
			r.NormPower[i] = res.PowerMW / base.PowerMW
			r.RowHitRate[i] = res.Mem.RowBuffer.HitRate()
			r.BankUtil[i] = res.BankUtil
		}
		t.end(rs)
		rows = append(rows, fig13Row(r))
	}
	return rows, nil
}

// tracedTable1 re-drives spice.BuildTimingTable's campaigns one by one on a
// one-worker pool and assembles the table from them.
func tracedTable1(t *tracer, p spice.Params, o spice.TableOptions) ([]row, error) {
	root := t.begin("table1", "engine", 0)
	defer t.end(root)
	pool := engine.NewPool(1)
	var raws []spice.RawTimings
	var m0, m1 runtime.MemStats
	for i, m := range table1Modes {
		runtime.ReadMemStats(&m0)
		s := t.begin("spice.MonteCarlo "+m.name, "spice.mc", root)
		raw, err := spice.MonteCarloPool(context.Background(), pool, p, m.mode, o.Iterations, o.Seed+int64(i), o.Sigma)
		d := t.end(s)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		t.w.mcNS[m.name] += d
		t.w.mcTotalNS += d
		t.w.MCDraws += uint64(o.Iterations)
		t.w.mcMallocs += m1.Mallocs - m0.Mallocs
		raws = append(raws, raw)
	}
	extract := func(name string, initV float64) (spice.RawTimings, error) {
		s := t.begin("spice.Extract "+name, "spice.extract", root)
		defer t.end(s)
		return spice.Extract(p, spice.ModeHighPerf, initV)
	}
	hpET, err := extract("highperf_et", p.ETFrac*p.VDD)
	if err != nil {
		return nil, err
	}
	nominalHP, err := extract("highperf_nominal", p.RestoreFrac*p.VDD)
	if err != nil {
		return nil, err
	}
	s := t.begin("spice.REFWSweep", "spice.refw", root)
	sweep, err := spice.REFWSweep(p, o.SweepStep)
	t.w.refwNS += t.end(s)
	if err != nil {
		return nil, err
	}
	tab, err := assembleTable(raws[0], raws[1], raws[2], hpET, nominalHP, sweep)
	if err != nil {
		return nil, err
	}
	return table1Output(tab).rows, nil
}

// driveLayers runs the generator, LLC and profiler layers in isolation on
// one row's inputs: each core's profiling, warmup and run record budget.
func driveLayers(t *tracer, profiles []workload.Profile, opts sim.Options) error {
	root := t.begin("layers", "harness", 0)
	defer t.end(root)
	profRecs := make([][]trace.Record, len(profiles))
	streams := make([][]trace.Record, len(profiles))
	g := t.begin("workload.Reader.Next", "workload", root)
	for i, p := range profiles {
		seed := opts.Seed + int64(i)
		rd := p.NewReader(seed)
		recs := make([]trace.Record, 0, opts.ProfileRecords)
		for len(recs) < opts.ProfileRecords {
			r, err := rd.Next()
			if err != nil {
				return err
			}
			recs = append(recs, r)
		}
		profRecs[i] = recs
		rd = p.NewReader(seed)
		var instr uint64
		stream := make([]trace.Record, 0, opts.WarmupRecords)
		for len(stream) < opts.WarmupRecords || instr < opts.TargetInstructions {
			r, err := rd.Next()
			if err != nil {
				return err
			}
			if len(stream) >= opts.WarmupRecords {
				instr += uint64(r.Instructions())
			}
			stream = append(stream, r)
		}
		streams[i] = stream
		t.w.genRecords += uint64(len(recs) + len(stream))
	}
	t.w.genNS += t.end(g)

	ps := t.begin("core.Profiler", "core", root)
	for i, p := range profiles {
		prof := core.NewProfiler()
		prof.Sample(&trace.SliceReader{Records: profRecs[i]}, opts.ProfileRecords)
		_ = prof.Ranking(p.FootprintPages)
	}
	t.w.profileNS += t.end(ps)

	// The LLC sees each core's stream at its base in the shared address
	// space, core-major, as the warmup does.
	cs := t.begin("cache.Access", "cache", root)
	llc := cache.New(opts.LLC)
	var base uint64
	for i, p := range profiles {
		for _, r := range streams[i] {
			addr := base + r.Addr
			if llc.Access(addr, r.Write, nil) == cache.Miss {
				llc.Fill(llc.LineAddr(addr))
			}
		}
		t.w.cacheAccesses += uint64(len(streams[i]))
		base += uint64(p.FootprintPages) * core.PageBytes
	}
	t.w.cacheNS += t.end(cs)
	return nil
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Spans int     `json:"spans"`
}

// layerTable sums each layer's self time: a span's duration minus the part
// of it that its child spans cover.
func layerTable(spans []span) []layerRow {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	agg := map[string]*layerRow{}
	for _, s := range spans {
		r := agg[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			agg[s.Layer] = r
		}
		r.SelfS += (s.dur() - child[s.ID]).Seconds()
		r.Spans++
	}
	var out []layerRow
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// rootSelf is the self time of the artifact's root span: the driver glue
// the engine layer runs between the calls into the layers below it.
func rootSelf(spans []span, root int) time.Duration {
	var covered time.Duration
	for _, s := range spans {
		if s.Parent == root {
			covered += s.dur()
		}
	}
	return spans[root-1].dur() - covered
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from one traced pass. Metrics
// of layers a workload does not exercise read 0.
func layerMetrics(w *work, rootSelfS, slowdown float64) map[string]float64 {
	ns := func(d int64) float64 { return float64(d) / 1e9 }
	perInstr := func(class string) float64 {
		return ratio(float64(w.classRunNS[class]), float64(w.classInstr[class]))
	}
	return map[string]float64{
		"sim.setup.first_cell_s":        ns(w.firstCellNS),
		"sim.setup.fork_cell_s":         ns(w.forkCellNS),
		"sim.setup.alloc_mb":            float64(w.setupBytes) / 1e6,
		"sim.run_s":                     ns(w.runNS),
		"sim.run.ns_per_instr.memint":   perInstr("memint"),
		"sim.run.ns_per_instr.light":    perInstr("light"),
		"sim.run.ns_per_instr.L":        perInstr("L"),
		"sim.run.ns_per_instr.M":        perInstr("M"),
		"sim.run.ns_per_instr.H":        perInstr("H"),
		"sim.run.allocs_per_kinstr":     ratio(float64(w.runMallocs), float64(w.Instructions)/1000),
		"sim.run.alloc_bytes_per_instr": ratio(float64(w.runBytes), float64(w.Instructions)),
		"sim.alone_s":                   ns(w.aloneNS),
		"ff.skip_share":                 ratio(float64(w.FFSkipped), float64(w.CPUCycles)),
		"ff.plan_yield":                 ratio(float64(w.FFSkips), float64(w.FFAttempts)),
		"ff.disengages":                 float64(w.FFDisengages),
		"ff.lag_flushes":                float64(w.FFLagFlushes),
		"ff.lag_share":                  ratio(float64(w.FFLaggedCoreCycles), float64(w.CoreCycles)),
		"sim.instructions":              float64(w.Instructions),
		"sim.cpu_cycles":                float64(w.CPUCycles),
		"sim.dram_cycles":               float64(w.DRAMCycles),
		"mem.reads":                     float64(w.Reads),
		"mem.writes":                    float64(w.Writes),
		"mem.write_share":               ratio(float64(w.Writes), float64(w.Reads+w.Writes)),
		"mem.row_hit_rate":              ratio(float64(w.RowHits), float64(w.RowAccesses)),
		"mem.cap_trips":                 float64(w.CapTrips),
		"mem.timeout_closes":            float64(w.TimeoutCloses),
		"mem.refreshes":                 float64(w.Refreshes),
		"llc.accesses":                  float64(w.LLCAccesses),
		"llc.miss_rate":                 ratio(float64(w.LLCMisses), float64(w.LLCAccesses)),
		"workload.ns_per_record":        ratio(float64(w.genNS), float64(w.genRecords)),
		"cache.ns_per_access":           ratio(float64(w.cacheNS), float64(w.cacheAccesses)),
		"core.profile_s":                ns(w.profileNS),
		"spice.mc_s.baseline":           ns(w.mcNS["baseline"]),
		"spice.mc_s.maxcap":             ns(w.mcNS["maxcap"]),
		"spice.mc_s.highperf":           ns(w.mcNS["highperf"]),
		"spice.mc.ns_per_draw":          ratio(float64(w.mcTotalNS), float64(w.MCDraws)),
		"spice.refw_s":                  ns(w.refwNS),
		"spice.allocs_per_draw":         ratio(float64(w.mcMallocs), float64(w.MCDraws)),
		"engine.self_s":                 rootSelfS,
		"trace.slowdown":                slowdown,
	}
}
