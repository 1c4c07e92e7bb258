package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

// Checkpoint-and-fork warmup (DESIGN.md §13). Every run of a Fig. 12/13/15
// style sweep repeats the same pre-measurement work for each configuration:
// profile the workloads for the hot-page ranking, then stream warmup records
// through the LLC. None of it depends on the CLR configuration under test —
// only on (profiles, seed, record budgets, LLC geometry) — so a sweep row
// can snapshot the warmed architectural state once and fork it into every
// cell: the rankings are shared read-only, the LLC is deep-copied, and the
// per-core trace readers are cloned at their post-warmup positions
// (trace.CloneableReader; the synthetic generators replay their PRNG draw
// count, so a forked stream is the cold stream, bit for bit). Forked sweeps
// are byte-identical to cold ones by contract — enforced by the warmfork
// differential tests next to ffdiff.

// WarmupCache shares warmed architectural state across the NewSystem calls
// of a sweep. Install one via Options.Warmup (the sweep drivers do this
// automatically unless Options.DisableWarmupFork is set); it is safe for
// concurrent use by the experiment engine's workers, building each distinct
// warmup state exactly once (engine.KeyedOnce). Drop the cache to release
// the master snapshots.
type WarmupCache struct {
	once engine.KeyedOnce[string, *warmState]
}

// NewWarmupCache returns an empty cache.
func NewWarmupCache() *WarmupCache { return &WarmupCache{} }

// warmState is one master snapshot: everything NewSystem computes before
// the measured phase that does not depend on the CLR configuration.
type warmState struct {
	rankings [][]int        // per-core hot-page rankings (shared read-only)
	llc      *cache.Cache   // warmed LLC master (Clone per fork)
	readers  []trace.Reader // positioned just past warmup (CloneReader per fork)
}

// state returns the snapshot for the given workload set, building it on
// first use. A nil snapshot with nil error means the profiles' readers are
// not cloneable and the caller must warm up cold.
func (w *WarmupCache) state(profiles []workload.Profile, opts Options) (*warmState, error) {
	key, err := warmKey(profiles, opts)
	if err != nil {
		return nil, err
	}
	ws, err := w.once.Do(key, func() (*warmState, error) {
		return buildWarmState(profiles, opts)
	})
	if err == errWarmupNotCloneable {
		return nil, nil
	}
	return ws, err
}

// errWarmupNotCloneable marks a workload set whose readers cannot be
// snapshotted; NewSystem falls back to cold warmup for it.
var errWarmupNotCloneable = fmt.Errorf("sim: warmup fork: reader is not cloneable")

// warmKey fingerprints everything a warmState depends on. Profiles are
// hashed in full (order matters: each index is a core), so two sweeps with
// differently-parameterised same-name profiles never collide.
func warmKey(profiles []workload.Profile, opts Options) (string, error) {
	env := struct {
		Profiles       []workload.Profile `json:"profiles"`
		Seed           int64              `json:"seed"`
		ProfileRecords int                `json:"profile_records"`
		WarmupRecords  int                `json:"warmup_records"`
		LLC            cache.Config       `json:"llc"`
	}{profiles, opts.Seed, opts.ProfileRecords, opts.WarmupRecords, opts.LLC}
	b, err := json.Marshal(env)
	if err != nil {
		return "", fmt.Errorf("sim: warmup fork key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// buildWarmState replicates NewSystem's cold pre-measurement sequence
// exactly — profiling, then core-major warmup through a fresh LLC — against
// standalone state that the forks then copy. The cold path opens two readers
// per core with the same seed, one to profile and one to warm up and run, so
// both see the same stream; here one reader per core serves both. It feeds
// its first ProfileRecords records to the profiler and its first
// WarmupRecords to the LLC, and is cloned at WarmupRecords to give the run
// reader. The LLC sees each core's records in turn, so its state (LRU clock
// included) matches System.warmup's core-major order.
func buildWarmState(profiles []workload.Profile, opts Options) (*warmState, error) {
	ws := &warmState{
		rankings: make([][]int, len(profiles)),
		llc:      cache.New(opts.LLC),
		readers:  make([]trace.Reader, len(profiles)),
	}
	profileN, warmN := max(opts.ProfileRecords, 0), max(opts.WarmupRecords, 0)
	var base uint64
	for i, p := range profiles {
		rd, ok := p.NewReader(opts.Seed + int64(i)).(trace.CloneableReader)
		if !ok {
			return nil, errWarmupNotCloneable
		}
		prof := core.NewFootprintProfiler(p.FootprintPages)
		for n := 0; n < max(profileN, warmN); n++ {
			if n == warmN {
				ws.readers[i] = rd.CloneReader()
			}
			rec, err := rd.Next()
			if err != nil {
				break
			}
			if n < profileN {
				prof.Record(rec.Addr)
			}
			if n < warmN {
				addr := base + rec.Addr
				if ws.llc.Access(addr, rec.Write, nil) == cache.Miss {
					ws.llc.Fill(ws.llc.LineAddr(addr)) // warmup writebacks carry no timing cost
				}
			}
		}
		if ws.readers[i] == nil {
			ws.readers[i] = rd
		}
		ws.rankings[i] = prof.Ranking(p.FootprintPages)
		base += uint64(p.FootprintPages) * core.PageBytes
	}
	return ws, nil
}

// ensureWarmup installs a fresh WarmupCache for a sweep driver's scope when
// fork-warmup is enabled and the caller has not supplied one. Drivers call
// it on their own Options copy, so the cache's lifetime is the sweep (or
// row) that shares it.
func (o *Options) ensureWarmup() {
	if o.Warmup == nil && !o.DisableWarmupFork {
		o.Warmup = NewWarmupCache()
	}
}
