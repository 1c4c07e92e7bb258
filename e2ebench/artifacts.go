package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/workload"
)

// Benchmark scale. The golden digests in golden.json were produced at
// exactly these values; changing any of them regenerates the goldens.
const (
	// fig12Instructions is the per-core instruction target of every Fig. 12
	// cell; the profile set is always the full 71-profile workload.All().
	fig12Instructions = 50_000
	// fig13Instructions is the per-core target of every Fig. 13 cell.
	fig13Instructions = 200_000
	// fig13MixesPerGroup mixes are drawn for each of the L/M/H groups.
	fig13MixesPerGroup = 2
	// fig13MixSeed fixes which profiles make up the Fig. 13 mixes. The
	// --seed argument drives every trace generator but not the mix draw:
	// with two mixes per group, redrawing the mixes per seed moves the
	// sweep's work by ±20%, which would swamp any change under test.
	fig13MixSeed = 1
	// table1Iterations is the Monte Carlo draw count per Table 1 mode.
	table1Iterations = 300
	// table1SetupPasses setup passes form one table1 setup sample, timed
	// as one interval: a pass is ~10 ms, so alone it is mostly noise.
	table1SetupPasses = 64
)

// defaultSeed is the seed the committed goldens were generated with.
const defaultSeed = 1

// row is one checked unit of an artifact: a Fig. 12 profile, a Fig. 13 mix
// or a Table 1 column, reduced to a digest of its output bits.
type row struct {
	Name   string
	Digest string
}

// output is what one artifact call produced.
type output struct {
	rows []row
	// series holds the measured values compared against the paper, keyed
	// like the entries of paper.json.
	series map[string]float64
}

// artifact is one benchmark workload.
type artifact struct {
	name string
	// call regenerates the artifact once through its public entry point.
	call func() (output, error)
	// setup runs the artifact's set-up work once without the measured
	// phase; setupPasses of them, timed as one interval, form one sample.
	setup       func() error
	setupPasses int
	// traced re-drives the same work from the benchmark, recording spans
	// and counters at every layer boundary.
	traced func(t *tracer) ([]row, error)
	// layers drives single layers in isolation on the artifact's inputs
	// (nil when the artifact has none to drive).
	layers func(t *tracer) error
}

// simOptions returns the options every simulated workload runs with: one
// engine worker, statistics off, and the given seed.
func simOptions(seed int64, instructions uint64) sim.Options {
	o := sim.DefaultOptions()
	o.TargetInstructions = instructions
	o.Seed = seed
	o.Workers = 1
	o.CollectStats = false
	return o
}

// clrConfig is the sweep drivers' configuration for one HP fraction at the
// default 64 ms refresh window.
func clrConfig(frac float64) core.Config {
	c := core.CLR(frac)
	c.REFWms = 64
	return c
}

func newArtifact(name string, seed int64) (*artifact, error) {
	switch name {
	case "fig12":
		return fig12Artifact(seed), nil
	case "fig13":
		return fig13Artifact(seed), nil
	case "table1":
		return table1Artifact(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig12, fig13 or table1)", name)
}

func fig12Artifact(seed int64) *artifact {
	opts := simOptions(seed, fig12Instructions)
	profiles := workload.All()
	return &artifact{
		name: "fig12",
		call: func() (output, error) {
			out, err := sim.Run(context.Background(), sim.Fig12Spec(profiles), sim.WithOptions(opts))
			if err != nil {
				return output{}, err
			}
			return fig12Output(out.Fig12), nil
		},
		setup: func() error {
			for _, p := range profiles {
				if err := setupCells([]workload.Profile{p}, opts); err != nil {
					return err
				}
			}
			return nil
		},
		setupPasses: 1,
		traced: func(t *tracer) ([]row, error) {
			return tracedFig12(t, profiles, opts)
		},
		layers: func(t *tracer) error {
			for _, p := range profiles {
				if err := driveLayers(t, []workload.Profile{p}, opts); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func fig13Artifact(seed int64) *artifact {
	opts := simOptions(seed, fig13Instructions)
	groups := workload.MixGroups(fig13MixSeed, fig13MixesPerGroup)
	mixes := orderedMixes(groups)
	return &artifact{
		name: "fig13",
		call: func() (output, error) {
			out, err := sim.Run(context.Background(), sim.Fig13Spec(groups), sim.WithOptions(opts))
			if err != nil {
				return output{}, err
			}
			return fig13Output(out.Fig13), nil
		},
		setup: func() error {
			// The alone runs build cold systems (no warm cache), as
			// sim.AloneIPCs does inside the Fig. 13 driver.
			for _, p := range uniqueProfiles(mixes) {
				if _, err := sim.NewSystem([]workload.Profile{p}, core.Baseline(), opts); err != nil {
					return err
				}
			}
			for _, gm := range mixes {
				if err := setupCells(gm.mix.Profiles[:], opts); err != nil {
					return err
				}
			}
			return nil
		},
		setupPasses: 1,
		traced: func(t *tracer) ([]row, error) {
			return tracedFig13(t, mixes, opts)
		},
		layers: func(t *tracer) error {
			for _, gm := range mixes {
				if err := driveLayers(t, gm.mix.Profiles[:], opts); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// setupCells builds every cell of one sweep row (baseline plus each HP
// fraction) under the drivers' warm-cache policy, without running them.
func setupCells(profiles []workload.Profile, opts sim.Options) error {
	opts.Warmup = sim.NewWarmupCache()
	if _, err := sim.NewSystem(profiles, core.Baseline(), opts); err != nil {
		return err
	}
	for _, frac := range sim.HPFractions {
		if _, err := sim.NewSystem(profiles, clrConfig(frac), opts); err != nil {
			return err
		}
	}
	return nil
}

// groupedMix is a Fig. 13 mix with its intensity group.
type groupedMix struct {
	group string
	mix   workload.Mix
}

// orderedMixes lists the mixes in the Fig. 13 driver's order: groups sorted
// by name, mixes in their generated order within a group.
func orderedMixes(groups map[string][]workload.Mix) []groupedMix {
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	var out []groupedMix
	for _, g := range names {
		for _, m := range groups[g] {
			out = append(out, groupedMix{g, m})
		}
	}
	return out
}

func uniqueProfiles(mixes []groupedMix) []workload.Profile {
	seen := map[string]bool{}
	var out []workload.Profile
	for _, gm := range mixes {
		for _, p := range gm.mix.Profiles {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func allMixes(mixes []groupedMix) []workload.Mix {
	out := make([]workload.Mix, len(mixes))
	for i, gm := range mixes {
		out[i] = gm.mix
	}
	return out
}

// table1Params are the circuit parameters and campaign options of the
// table1 workload: default batch width, one worker, reduced draw count.
func table1Params(seed int64) (spice.Params, spice.TableOptions) {
	if seed == 0 {
		seed = 1 // BuildTimingTable's own default
	}
	return spice.Default(), spice.TableOptions{
		Iterations: table1Iterations,
		Seed:       seed,
		Sigma:      0.05,
		SweepStep:  10,
		Workers:    1,
	}
}

// table1Modes are the three Monte Carlo campaigns of Table 1, in
// BuildTimingTable's seed order (campaign i uses seed+i).
var table1Modes = []struct {
	name string
	mode spice.Mode
}{
	{"baseline", spice.ModeBaseline},
	{"maxcap", spice.ModeMaxCap},
	{"highperf", spice.ModeHighPerf},
}

func table1Artifact(seed int64) *artifact {
	p, topts := table1Params(seed)
	return &artifact{
		name: "table1",
		call: func() (output, error) {
			tab, err := spice.BuildTimingTable(p, topts)
			if err != nil {
				return output{}, err
			}
			return table1Output(tab), nil
		},
		// BuildTimingTable has no set-up phase of its own; its one-off
		// work is building and compiling each campaign's netlist, which a
		// nominal extraction per mode exercises.
		setup: func() error {
			for _, m := range table1Modes {
				if _, err := spice.Extract(p, m.mode, p.RestoreFrac*p.VDD); err != nil {
					return err
				}
			}
			return nil
		},
		setupPasses: table1SetupPasses,
		traced: func(t *tracer) ([]row, error) {
			return tracedTable1(t, p, topts)
		},
	}
}

// assembleTable turns the raw circuit timings into Table 1 and the Fig. 11
// curve exactly as spice.BuildTimingTable does, so the traced re-drive can
// be checked bit for bit against the e2e call.
func assembleTable(base, mc, hp, hpET, nominalHP spice.RawTimings, sweep []spice.SweepPoint) (*core.TimingTable, error) {
	cal := spice.CalibrateBaseline(base)
	tab := &core.TimingTable{Source: "circuit-simulation"}
	mk := func(rcd, ras, rp, wr float64) dram.TimingNS {
		t := dram.DDR4BaselineNS()
		t.RCD = rcd * cal.RCD
		t.RAS = ras * cal.RAS
		t.RP = rp * cal.RP
		t.WR = wr * cal.WR
		return t
	}
	tab.Baseline = mk(base.RCD, base.RASFull, base.RP, base.WRFull)
	tab.MaxCap = mk(mc.RCD, mc.RASFull, mc.RP, mc.WRFull)
	tab.HighPerfNoET = mk(hp.RCD, hp.RASFull, hp.RP, hp.WRFull)
	mcMargin := hp.RCD / nominalHP.RCD
	tab.HighPerfET = mk(hpET.RCD*mcMargin, hp.RASET, hp.RP, hp.WRET)
	applyRFC := func(t *dram.TimingNS) {
		rasRed := 1 - t.RAS/tab.Baseline.RAS
		rpRed := 1 - t.RP/tab.Baseline.RP
		t.RFC = tab.Baseline.RFC * (1 - (rasRed+rpRed)/2)
	}
	applyRFC(&tab.HighPerfET)
	applyRFC(&tab.HighPerfNoET)
	if len(sweep) == 0 {
		return nil, fmt.Errorf("refresh-window sweep produced no points")
	}
	base64 := sweep[0]
	for _, pt := range sweep {
		tab.REFWCurve = append(tab.REFWCurve, core.REFWPoint{
			Ms:  pt.Ms,
			RCD: tab.HighPerfET.RCD + (pt.RCD-base64.RCD)*cal.RCD,
			RAS: tab.HighPerfET.RAS + (pt.RAS-base64.RAS)*cal.RAS,
		})
	}
	return tab, nil
}

// digest hashes a row name and the exact bits of its float outputs.
func digest(name string, vals ...[]float64) string {
	h := sha256.New()
	h.Write([]byte(name))
	var b [8]byte
	for _, vs := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
		h.Write(b[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func fig12Row(r sim.SingleRow) row {
	return row{r.Name, digest(r.Name, []float64{r.BaselineIPC, r.MPKI},
		r.NormIPC, r.NormEnergy, r.NormPower, r.RowHitRate, r.BankUtil)}
}

func fig13Row(r sim.MixRow) row {
	name := r.Group + "/" + r.Name
	return row{name, digest(name, r.NormWS, r.NormEnergy, r.NormPower, r.RowHitRate, r.BankUtil)}
}

// pctLabels names the HP fractions in paper.json keys.
var pctLabels = []string{"0", "25", "50", "75", "100"}

func fig12Output(f *sim.Fig12Result) output {
	out := output{series: map[string]float64{}}
	for _, r := range f.Rows {
		out.rows = append(out.rows, fig12Row(r))
	}
	for i, l := range pctLabels {
		out.series["ipc_gain_pct@"+l] = (f.GMeanIPC[i] - 1) * 100
		out.series["energy_change_pct@"+l] = (f.GMeanEnergy[i] - 1) * 100
	}
	return out
}

func fig13Output(f *sim.Fig13Result) output {
	out := output{series: map[string]float64{}}
	for _, r := range f.Rows {
		out.rows = append(out.rows, fig13Row(r))
	}
	for i, l := range pctLabels {
		out.series["ws_gain_pct@"+l] = (f.GMeanWS[i] - 1) * 100
		out.series["energy_change_pct@"+l] = (f.GMeanEnergy[i] - 1) * 100
	}
	return out
}

func timingBits(t dram.TimingNS) []float64 {
	return []float64{t.RCD, t.RAS, t.RP, t.WR, t.RTP, t.CL, t.CWL, t.RRDS, t.RRDL,
		t.FAW, t.WTRS, t.WTRL, t.RFC, t.REFI}
}

func table1Output(tab *core.TimingTable) output {
	var curve []float64
	for _, pt := range tab.REFWCurve {
		curve = append(curve, pt.Ms, pt.RCD, pt.RAS)
	}
	cols := []struct {
		name string
		vals []float64
	}{
		{"baseline", timingBits(tab.Baseline)},
		{"maxcap", timingBits(tab.MaxCap)},
		{"highperf_noet", timingBits(tab.HighPerfNoET)},
		{"highperf_et", timingBits(tab.HighPerfET)},
		{"fig11_refw_curve", curve},
	}
	out := output{series: map[string]float64{}}
	for _, c := range cols {
		out.rows = append(out.rows, row{c.name, digest(c.name, c.vals)})
	}
	b, h := tab.Baseline, tab.HighPerfET
	out.series["change_pct.tRCD"] = (h.RCD/b.RCD - 1) * 100
	out.series["change_pct.tRAS"] = (h.RAS/b.RAS - 1) * 100
	out.series["change_pct.tRP"] = (h.RP/b.RP - 1) * 100
	out.series["change_pct.tWR"] = (h.WR/b.WR - 1) * 100
	return out
}
