package sim

import (
	"context"
	"fmt"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/cpu"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/metrics"
	"clrdram/internal/power"
	"clrdram/internal/stats"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

// Result captures everything the experiment layer needs from one run.
type Result struct {
	CLR        core.Config
	PerCore    []stats.CoreStats
	CPUCycles  int64 // cycles until the last core reached its target
	DRAMCycles int64
	Energy     power.Breakdown
	PowerMW    float64
	Mem        mem.Stats
	LLC        cache.Stats
	TimedOut   bool
	// BankUtil is the mean per-bank data-burst occupancy across all banks
	// and channels: (RD+WR commands) × BL / device cycles per bank,
	// averaged. Always computed (the underlying command counts are free).
	BankUtil float64
	// Report is the structured observability report, non-nil only when
	// Options.CollectStats was set.
	Report *RunReport
}

// IPC returns per-core IPCs.
func (r Result) IPC() []float64 {
	out := make([]float64, len(r.PerCore))
	for i, c := range r.PerCore {
		out[i] = c.IPC()
	}
	return out
}

// System is one assembled simulation instance.
type System struct {
	opts    Options
	clr     core.Config
	cores   []*cpu.Core
	readers []trace.Reader
	llc     *cache.Cache
	ctrls   []*mem.Controller // one per channel
	meters  []*power.Meter    // one per channel
	mapper  *core.PageMapper
	bases   []uint64 // per-core base addresses in the global space

	// Dynamic-reconfiguration state (nil/zero for baseline systems).
	threshold  *core.DynamicThreshold
	devCfg     dram.Config
	rankings   [][]int
	totalPages int

	cpuCycle   int64
	dramAcc    float64
	dramPerCPU float64

	// Observability (nil unless Options.CollectStats): the run's registry
	// and the per-core cumulative-instruction series feeding epoch IPC.
	reg       *metrics.Registry
	ipcSeries []*metrics.EpochSeries

	hits      hitHeap
	pendingWB []uint64

	// Request lifecycle (DESIGN.md §16): the System owns every mem.Request
	// it submits, recycles them through reqPool, and routes each completion
	// by its Core tag (complete). mig is non-nil only inside Reconfigure.
	reqPool []*mem.Request
	mig     *migration

	// Scratch buffer for the fast-forward planner (see fastforward.go),
	// plus skip accounting (FFStats).
	ffStates  []cpu.FFState
	ffSkips   int64
	ffSkipped int64

	// Port-blocked channel cache (planSkip): the address a stalled core is
	// retrying is frozen until the port accepts it, and address→channel
	// mapping is pure, so consecutive attempts reuse the translation.
	ffPortAddr []uint64
	ffPortCh   []int
	ffPortOK   []bool

	// Coalesced joint-horizon cache (jointHorizon): the minimum controller
	// horizon, valid while every per-channel HorizonGen is unchanged and
	// the clock sits below it.
	ffGens    []uint64
	ffJointH  int64
	ffJointOK bool

	// Adaptive-engagement governor state (ffGovern): skip-length EMA,
	// planner-off countdown, probation countdown, and counters.
	ffEma        float64
	ffSleep      int64
	ffProbe      int
	ffAttempts   int64
	ffDisengages int64

	// Decoupled per-core lag state (decoupled.go): when planSkip finds a
	// mixed classification (some cores skippable, some not), each skippable
	// core carries a lag counter instead of ticking while the rest of the
	// system steps for real. ffStates[i] holds the captured classification
	// for the whole lag interval; ffLagCap bounds it (CapCycles plus any
	// RunFor ceiling); ffPortGen is the last-seen read-queue dequeue
	// generation of a port-blocked core's cached channel. ffAnyLag is the
	// cheap "is anything lagged" gate the completion hooks check.
	ffCanLag       []bool
	ffLagged       []bool
	ffLag          []int64
	ffLagCap       []int64
	ffPortGen      []uint64
	ffRetryAt      []int64
	ffAnyLag       bool
	ffMixed        bool
	ffLagWorth     float64
	ffLagFlushes   int64
	ffLaggedCycles int64
	// ffOnFlush, when non-nil, runs after every lag flush (test-only
	// instrumentation for the flush-boundary twin invariant).
	ffOnFlush func(core int, k int64)

	// Closed-form accumulator-walk cache (accumulator.go): the float64
	// trajectory's orbit table, built lazily from the current accumulator.
	ffOrbit accOrbit
}

// FFStats reports how much of the run the fast-forward path covered: the
// number of bulk skips applied and the total CPU cycles they absorbed.
func (s *System) FFStats() (skips, skippedCycles int64) {
	return s.ffSkips, s.ffSkipped
}

// FFGovernorStats reports the adaptive-engagement governor's activity: how
// many horizon-stage planning attempts ran and how many times the planner
// disengaged (always zero outside FFAdaptive). Benchmarks report these
// alongside FFStats; they are diagnostics, not part of a Result.
func (s *System) FFGovernorStats() (attempts, disengages int64) {
	return s.ffAttempts, s.ffDisengages
}

// FFLagStats reports the decoupled-skip path's activity (DESIGN.md §15):
// how many lag flushes ran and how many core-cycles were absorbed by lag
// counters instead of per-cycle Ticks. Like FFGovernorStats these are
// wall-clock diagnostics (surfaced by cmd/ffbench as `lag_flushes` and
// `lagged_core_cycles`), deliberately kept out of Result and the canonical
// RunReport so reports stay identical across fast-forward modes.
func (s *System) FFLagStats() (lagFlushes, laggedCoreCycles int64) {
	return s.ffLagFlushes, s.ffLaggedCycles
}

// NewSystem builds a system running the given per-core workload profiles
// under the given CLR-DRAM configuration. All profiles use Options.Seed
// (offset per core) so runs are reproducible.
func NewSystem(profiles []workload.Profile, clr core.Config, opts Options) (*System, error) {
	if opts.Standard != "" || opts.Device.BankGroups == 0 {
		std, err := dram.NewStandard(opts.Standard)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if clr.Enabled && !std.CLRCapable() {
			return nil, fmt.Errorf("sim: standard %q has a fixed timing table and cannot model CLR-DRAM row modes; run it with the baseline configuration", std.Name())
		}
		if opts.Device.BankGroups == 0 {
			opts.Device = std.DeviceConfig()
		}
	}
	opts = opts.withDefaults()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no workloads")
	}
	if err := opts.LLC.Validate(); err != nil {
		return nil, fmt.Errorf("sim: LLC: %w", err)
	}
	if err := clr.Validate(); err != nil {
		return nil, err
	}

	devCfg, refresh, err := clr.Build(opts.Device)
	if err != nil {
		return nil, err
	}
	// Replace the static threshold with a mutable one so the system can be
	// reconfigured at run time (Reconfigure); the device consults it at
	// every ACT.
	var threshold *core.DynamicThreshold
	if clr.Enabled {
		threshold = core.NewDynamicThreshold(clr.HPRows(devCfg.Rows), dram.ModeMaxCap)
		devCfg.ModeOf = threshold
	}

	// Layout: each core gets a private page-aligned region of the global
	// address space, packed contiguously. The whole set must fit the
	// simulated DRAM, checked before anything is sized by the footprint (a
	// trace's footprint reaches its highest address, however sparse).
	if opts.Channels < 1 {
		return nil, fmt.Errorf("sim: need at least 1 channel, got %d", opts.Channels)
	}
	capacity := opts.Channels * devCfg.Banks() * devCfg.Rows * (devCfg.Columns * 64 / core.PageBytes)
	bases := make([]uint64, len(profiles))
	var totalPages int
	for i, p := range profiles {
		if p.FootprintPages > capacity-totalPages {
			return nil, &FootprintError{Pages: totalPages + p.FootprintPages, Capacity: capacity}
		}
		bases[i] = uint64(totalPages) * core.PageBytes
		totalPages += p.FootprintPages
	}

	// Profile each workload (fresh readers, same seed as the run) and
	// build the global hot-page ranking: each workload contributes its top
	// HPFraction pages, interleaved by rank across cores (§8.1). With a
	// WarmupCache installed, the rankings — along with the warmed LLC and
	// positioned readers consumed below — are computed once per workload
	// set and forked across every configuration of the sweep (§13): they
	// depend only on (profiles, seed, record budgets, LLC geometry), never
	// on the CLR configuration under test.
	var ws *warmState
	if opts.Warmup != nil {
		ws, err = opts.Warmup.state(profiles, opts)
		if err != nil {
			return nil, err
		}
	}
	rankings := make([][]int, len(profiles))
	if ws != nil {
		copy(rankings, ws.rankings)
	} else {
		for i, p := range profiles {
			prof := core.NewFootprintProfiler(p.FootprintPages)
			prof.Sample(p.NewReader(opts.Seed+int64(i)), opts.ProfileRecords)
			rankings[i] = prof.Ranking(p.FootprintPages)
		}
	}
	ranking := combineRankings(rankings, bases, clr.HPFraction)
	mapper, err := core.BuildMappingMulti(devCfg, clr, ranking, totalPages, opts.Channels)
	if err != nil {
		return nil, err
	}

	var reg *metrics.Registry
	if opts.CollectStats {
		reg = metrics.NewRegistry()
	}

	ctrls := make([]*mem.Controller, opts.Channels)
	meters := make([]*power.Meter, opts.Channels)
	for ch := 0; ch < opts.Channels; ch++ {
		meter := power.NewMeter(power.Config{
			IDD:     opts.IDD,
			ClockNS: devCfg.ClockNS,
			Timings: timingNSTable(clr),
		})
		chCfg := devCfg
		chCfg.Listener = meter
		dev := dram.NewDevice(chCfg)
		memCfg := opts.Mem
		memCfg.Refresh = refresh
		memCfg.Metrics = reg.Sub(fmt.Sprintf("mem.ch%d", ch)) // nil-safe: Sub of nil is nil
		ctrl, err := mem.NewController(dev, memCfg)
		if err != nil {
			return nil, err
		}
		// Eager horizon republication (mem.SetEagerHorizon) is left off: it
		// raises skip coverage ~35% on memory-intensive runs, but the
		// O(queue) republish scan per issue event costs slightly more than
		// the extra skipped cycles recover now that dead device ticks are
		// O(1) in every mode. The lazy memo (republished by the scheduler's
		// own failed scans) measures at or above it on every profile.
		ctrls[ch] = ctrl
		meters[ch] = meter
	}

	var llc *cache.Cache
	if ws != nil {
		llc = ws.llc.Clone()
	} else {
		llc = cache.New(opts.LLC)
	}
	s := &System{
		opts:       opts,
		clr:        clr,
		llc:        llc,
		ctrls:      ctrls,
		meters:     meters,
		mapper:     mapper,
		bases:      bases,
		threshold:  threshold,
		devCfg:     devCfg,
		rankings:   rankings,
		totalPages: totalPages,
		dramPerCPU: (1.0 / opts.CPUClockGHz) / devCfg.ClockNS,
		reg:        reg,
	}
	s.ffGens = make([]uint64, len(ctrls))
	// The governor's EMA starts optimistic so every run opens engaged; a
	// genuinely dense workload pulls it under breakeven within one window.
	s.ffEma = 4 * ffBreakevenSpan

	s.cores = make([]*cpu.Core, len(profiles))
	s.ffStates = make([]cpu.FFState, len(profiles))
	s.ffPortAddr = make([]uint64, len(profiles))
	s.ffPortCh = make([]int, len(profiles))
	s.ffPortOK = make([]bool, len(profiles))
	s.ffCanLag = make([]bool, len(profiles))
	s.ffLagged = make([]bool, len(profiles))
	s.ffLag = make([]int64, len(profiles))
	s.ffLagCap = make([]int64, len(profiles))
	s.ffPortGen = make([]uint64, len(profiles))
	s.ffRetryAt = make([]int64, len(profiles))
	s.readers = make([]trace.Reader, len(profiles))
	for i, p := range profiles {
		var rd trace.Reader
		if ws != nil {
			rd = ws.readers[i].(trace.CloneableReader).CloneReader()
		} else {
			rd = p.NewReader(opts.Seed + int64(i))
		}
		s.readers[i] = rd
		s.cores[i] = cpu.New(i, opts.CPU, rd, (*memPort)(s), opts.TargetInstructions)
	}
	// One completion function per System, bound here once: the request
	// path allocates no per-request callbacks.
	s.llc.SetWake(s.wake)
	for _, ctrl := range ctrls {
		ctrl.SetCompletion(s.complete)
	}
	if reg != nil {
		s.ipcSeries = make([]*metrics.EpochSeries, len(s.cores))
		for i := range s.cores {
			s.ipcSeries[i] = reg.Series(fmt.Sprintf("cpu.core%d.instructions", i), opts.StatsEpochCycles)
		}
	}

	if ws == nil {
		s.warmup()
	}
	return s, nil
}

// timingNSTable assembles the per-mode nanosecond timings for the meter.
func timingNSTable(clr core.Config) [dram.NumModes]dram.TimingNS {
	tab := clr.Table
	if tab == nil {
		tab = core.DefaultTable()
	}
	var out [dram.NumModes]dram.TimingNS
	out[dram.ModeDefault] = tab.Baseline
	out[dram.ModeMaxCap] = tab.MaxCap
	hp := tab.HighPerfET
	if clr.Enabled {
		if h, err := tab.HighPerfAt(clr.REFWms, clr.EarlyTermination); err == nil {
			hp = h
		}
	}
	out[dram.ModeHighPerf] = hp
	return out
}

// combineRankings merges per-core page rankings into one global ranking:
// first every core's top `frac` pages round-robin by rank position, then all
// remaining pages in ascending global page order.
func combineRankings(rankings [][]int, bases []uint64, frac float64) []int {
	total := 0
	for _, r := range rankings {
		total += len(r)
	}
	out := make([]int, 0, total)
	taken := make([][]bool, len(rankings))
	hotN := make([]int, len(rankings))
	maxHot := 0
	for i, r := range rankings {
		hotN[i] = int(frac * float64(len(r)))
		if hotN[i] > maxHot {
			maxHot = hotN[i]
		}
		taken[i] = make([]bool, len(r))
	}
	for pos := 0; pos < maxHot; pos++ {
		for i, r := range rankings {
			if pos < hotN[i] {
				page := r[pos]
				taken[i][page] = true
				out = append(out, int(bases[i]/core.PageBytes)+page)
			}
		}
	}
	for i, r := range rankings {
		base := int(bases[i] / core.PageBytes)
		for page := 0; page < len(r); page++ {
			if !taken[i][page] {
				out = append(out, base+page)
			}
		}
	}
	return out
}

// warmup streams WarmupRecords per core through the LLC with no timing, so
// the measured phase starts with realistic cache state (§8.1 fast-forward).
func (s *System) warmup() {
	for i := range s.cores {
		for n := 0; n < s.opts.WarmupRecords; n++ {
			rec, err := s.readers[i].Next()
			if err != nil {
				break
			}
			addr := s.bases[i] + rec.Addr
			if s.llc.Access(addr, rec.Write, nil) == cache.Miss {
				if victim, wb := s.llc.Fill(s.llc.LineAddr(addr)); wb {
					_ = victim // warmup writebacks carry no timing cost
				}
			}
		}
	}
}

// Request.Core tags of memory traffic no core issued; complete routes on
// them.
const (
	writebackCore = -1 // dirty-victim writebacks
	migrationCore = -2 // Reconfigure's page-copy reads and writes
)

// memPort adapts System to cpu.MemPort.
type memPort System

// Load implements cpu.MemPort.
func (p *memPort) Load(coreID, slot int, addr uint64) bool {
	s := (*System)(p)
	global := s.bases[coreID] + addr
	// Conservative: require controller space before touching the cache so
	// a Miss never needs MSHR rollback.
	ch, _ := s.mapper.TranslateChannel(s.llc.LineAddr(global))
	if !s.ctrls[ch].CanEnqueue(false) {
		return false
	}
	w := cache.Waiter{Core: coreID, Slot: slot}
	switch s.llc.Access(global, false, &w) {
	case cache.Hit:
		s.hits.push(hitEvent{due: s.cpuCycle + int64(s.opts.LLC.HitLatency), core: coreID, slot: slot})
		return true
	case cache.MergedMiss:
		return true
	case cache.Miss:
		s.cores[coreID].CountLLCMiss()
		s.sendFetch(coreID, global)
		return true
	default: // Rejected: LLC MSHRs exhausted
		return false
	}
}

// Store implements cpu.MemPort.
func (p *memPort) Store(coreID int, addr uint64) bool {
	s := (*System)(p)
	global := s.bases[coreID] + addr
	ch, _ := s.mapper.TranslateChannel(s.llc.LineAddr(global))
	if !s.ctrls[ch].CanEnqueue(false) {
		return false
	}
	switch s.llc.Access(global, true, nil) {
	case cache.Hit, cache.MergedMiss:
		return true
	case cache.Miss:
		// Write-allocate: fetch the line; the store retires immediately.
		s.sendFetch(coreID, global)
		return true
	default:
		return false
	}
}

// wake is the LLC's wake function: a filled line's waiting load completes.
func (s *System) wake(w cache.Waiter) { s.cores[w.Core].LoadDone(w.Slot) }

// newRequest takes a request from the pool (allocating only while the pool
// is still growing to the run's peak in-flight count) and tags it with tag
// as its Core.
func (s *System) newRequest(addr uint64, write bool, tag int) *mem.Request {
	var req *mem.Request
	if n := len(s.reqPool); n > 0 {
		req = s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
	} else {
		req = new(mem.Request)
	}
	*req = mem.Request{Addr: addr, Write: write, Core: tag}
	return req
}

// complete is every controller's completion function. It routes a finished
// request by its tag and returns it to the pool: the controller has already
// let go of it (reads complete when their data arrives, writes when they
// issue, both after leaving the queue).
func (s *System) complete(req *mem.Request, _ int64) {
	switch {
	case req.Core == migrationCore:
		s.mig.complete(s, req)
	case !req.Write:
		// An LLC fetch for req.Core. Wake a lagged requester BEFORE the
		// fill wakes its waiters: LoadDone stamps the core's local cycle
		// into the window slot, so the lag must be applied first (per-core
		// address spaces are private — every waiter on this line belongs
		// to req.Core).
		if s.ffAnyLag && s.ffLagged[req.Core] {
			s.flushLag(req.Core)
		}
		if victim, wb := s.llc.Fill(req.Addr); wb {
			s.writeback(victim)
		}
	}
	s.reqPool = append(s.reqPool, req)
}

// sendFetch enqueues the memory read that backs an LLC miss.
func (s *System) sendFetch(coreID int, global uint64) {
	line := s.llc.LineAddr(global)
	ch, da := s.mapper.TranslateChannel(line)
	if !s.ctrls[ch].EnqueueDecoded(s.newRequest(line, false, coreID), da) {
		// CanEnqueue was checked by the caller in the same CPU cycle and no
		// controller tick has happened since, so this cannot occur.
		panic("sim: read enqueue failed after CanEnqueue")
	}
}

// enqueueWrite submits a write of addr through mapper, tagged tag. It
// returns false, leaving nothing queued, when the write queue is full.
func (s *System) enqueueWrite(mapper *core.PageMapper, addr uint64, tag int) bool {
	ch, da := mapper.TranslateChannel(addr)
	if !s.ctrls[ch].CanEnqueue(true) {
		return false
	}
	return s.ctrls[ch].EnqueueDecoded(s.newRequest(addr, true, tag), da)
}

// writeback enqueues a dirty-victim write, buffering it if the write queue
// is full (retried every CPU cycle by retryWritebacks).
func (s *System) writeback(victim uint64) {
	if !s.enqueueWrite(s.mapper, victim, writebackCore) {
		s.pendingWB = append(s.pendingWB, victim)
	}
}

// retryWritebacks resubmits buffered writebacks, newest first, until one
// is refused again.
func (s *System) retryWritebacks() {
	for len(s.pendingWB) > 0 && s.enqueueWrite(s.mapper, s.pendingWB[len(s.pendingWB)-1], writebackCore) {
		s.pendingWB = s.pendingWB[:len(s.pendingWB)-1]
	}
}

// step advances the whole system by one CPU cycle.
func (s *System) step() {
	// Fire due LLC-hit completions.
	for s.hits.Len() > 0 && s.hits.peek().due <= s.cpuCycle {
		ev := s.hits.pop()
		s.cores[ev.core].LoadDone(ev.slot)
	}
	s.retryWritebacks()
	for _, c := range s.cores {
		c.Tick()
	}
	s.dramAcc += s.dramPerCPU
	for s.dramAcc >= 1 {
		for _, ctrl := range s.ctrls {
			ctrl.Tick()
		}
		s.dramAcc--
	}
	s.cpuCycle++
	if s.ipcSeries != nil {
		for i, c := range s.cores {
			s.ipcSeries[i].Observe(s.cpuCycle, float64(c.Retired()))
		}
	}
}

// Run executes until every core reaches its instruction target (or the
// safety bound) and returns the result.
func (s *System) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation: it checks ctx periodically and
// returns ctx's error (with a zero Result) if it is cancelled mid-run.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	allDone := func() bool {
		for _, c := range s.cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}
	timedOut, err := s.runLoop(ctx, allDone, nil)
	if err != nil {
		return Result{}, err
	}
	return s.snapshotResult(timedOut), nil
}

// snapshotResult assembles a Result from the current simulation state.
func (s *System) snapshotResult(timedOut bool) Result {
	res := Result{
		CLR:        s.clr,
		CPUCycles:  s.cpuCycle,
		DRAMCycles: s.ctrls[0].Clock(),
		LLC:        s.llc.Stats(),
		TimedOut:   timedOut,
	}
	for ch, ctrl := range s.ctrls {
		e := s.meters[ch].Energy(ctrl.Clock())
		res.Energy.ActPre += e.ActPre
		res.Energy.ReadWrite += e.ReadWrite
		res.Energy.IO += e.IO
		res.Energy.Refresh += e.Refresh
		res.Energy.Background += e.Background
		res.PowerMW += s.meters[ch].AveragePowerMW(ctrl.Clock())
		st := ctrl.Stats()
		res.Mem.RowBuffer.Hits += st.RowBuffer.Hits
		res.Mem.RowBuffer.Misses += st.RowBuffer.Misses
		res.Mem.RowBuffer.Conflicts += st.RowBuffer.Conflicts
		res.Mem.ReadsServed += st.ReadsServed
		res.Mem.WritesServed += st.WritesServed
		res.Mem.Refreshes += st.Refreshes
		res.Mem.TimeoutCloses += st.TimeoutCloses
		res.Mem.CapTrips += st.CapTrips
	}
	for _, c := range s.cores {
		res.PerCore = append(res.PerCore, c.Stats())
	}
	res.BankUtil = s.bankUtil()
	if s.reg != nil {
		res.Report = s.buildReport(&res)
	}
	return res
}

// bankUtil computes the mean per-bank data-burst occupancy over all banks
// and channels (see Result.BankUtil).
func (s *System) bankUtil() float64 {
	var busy, slots float64
	for _, ctrl := range s.ctrls {
		dev := ctrl.Device()
		cfg := dev.Config()
		cycles := float64(dev.Clock())
		if cycles == 0 {
			continue
		}
		bl := float64(cfg.Timings[dram.ModeDefault].BL)
		for b := 0; b < cfg.Banks(); b++ {
			n := dev.BankCommandCount(b, dram.KindRD) + dev.BankCommandCount(b, dram.KindWR)
			busy += float64(n) * bl
			slots += cycles
		}
	}
	if slots == 0 {
		return 0
	}
	return busy / slots
}

// hitEvent is a scheduled LLC-hit completion of the load in the given
// core's window slot. The core tag also lets the decoupled lag path flush a
// lagged core before its completion fires.
type hitEvent struct {
	due  int64
	core int
	slot int
}

// hitHeap is a min-heap on due cycle. It is typed, like mem's completion
// heap, so pushes box nothing; its sift order is container/heap's, which
// fixes the firing order of same-cycle hits.
type hitHeap struct{ evs []hitEvent }

func (h *hitHeap) Len() int       { return len(h.evs) }
func (h *hitHeap) peek() hitEvent { return h.evs[0] }

func (h *hitHeap) push(ev hitEvent) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.evs[parent].due <= h.evs[i].due {
			break
		}
		h.evs[parent], h.evs[i] = h.evs[i], h.evs[parent]
		i = parent
	}
}

func (h *hitHeap) pop() hitEvent {
	top := h.evs[0]
	last := len(h.evs) - 1
	h.evs[0] = h.evs[last]
	h.evs = h.evs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.evs) && h.evs[l].due < h.evs[smallest].due {
			smallest = l
		}
		if r < len(h.evs) && h.evs[r].due < h.evs[smallest].due {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.evs[i], h.evs[smallest] = h.evs[smallest], h.evs[i]
		i = smallest
	}
	return top
}
