package sim

import (
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// TestRequestPathAllocationFree checks the steady-state memory-request path
// allocates nothing: core → LLC → controller → completion, including MSHR
// merging, LLC-hit completions, victim writebacks and the fast-forward
// paths. Each case warms the system until its request pool, queues and
// miss table have reached their peak sizes, then counts heap allocations
// over further windows of simulated cycles.
func TestRequestPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	mustProfile := func(name string) workload.Profile {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		return p
	}
	for _, tc := range []struct {
		name       string
		profiles   []string
		writebacks bool // the measured windows must include writebacks
	}{
		{"429.mcf-like", []string{"429.mcf-like"}, false},
		{"mix", []string{"429.mcf-like", "470.lbm-like", "462.libquantum-like", "459.GemsFDTD-like"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var profiles []workload.Profile
			for _, n := range tc.profiles {
				profiles = append(profiles, mustProfile(n))
			}
			opts := DefaultOptions()
			opts.TargetInstructions = 1 << 40 // never finishes: windows pace the run
			opts.ProfileRecords = 5_000
			s, err := NewSystem(profiles, core.CLR(0.5), opts)
			if err != nil {
				t.Fatal(err)
			}
			const window = 20_000 // CPU cycles
			var stop int64
			done := func() bool { return s.cpuCycle >= stop }
			run := func() {
				stop = s.cpuCycle + window
				if _, err := s.runLoop(context.Background(), done, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				run() // warm: grow pools and queues to their peaks
			}
			served := func() (reads, writes uint64) {
				for _, c := range s.ctrls {
					st := c.Stats()
					reads += st.ReadsServed
					writes += st.WritesServed
				}
				return reads, writes
			}
			r0, w0 := served()
			const runs = 5
			allocs := testing.AllocsPerRun(runs, run) // plus one unmeasured warm-up run
			r1, w1 := served()
			reads, writes := (r1-r0)/(runs+1), (w1-w0)/(runs+1)
			if reads == 0 || (tc.writebacks && writes == 0) {
				t.Fatalf("window served %d reads and %d writes: the request path was not exercised", reads, writes)
			}
			if allocs != 0 {
				t.Fatalf("%.1f heap allocations per %d-cycle window (%d reads, %d writes): want 0 per request",
					allocs, window, reads, writes)
			}
		})
	}
}
