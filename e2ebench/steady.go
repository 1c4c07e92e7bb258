package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line of one measurement run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its default
// exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadyMain runs every workload of BENCHMARK.json -runs times, one fresh
// process of run_seconds per run, run i with seed i, interleaving the
// workloads so slow drift of the host hits them alike. For every end-to-end
// metric it prints the median, quartiles, min/max and the quartile spread
// as a share of the median and of the metric's bound.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", *benchPath, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	values := map[string]map[string][]float64{}
	attempted, failed, incorrect := map[string]int{}, map[string]int{}, map[string]int{}
	for seed := 1; seed <= *runs; seed++ {
		for _, w := range names {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			os.Stderr.Write(out[:bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n')+1])
			res, err := lastLine(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			var line []string
			for _, m := range bf.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[w][m.Name] = append(values[w][m.Name], v)
				line = append(line, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			attempted[w] += res.Attempted
			failed[w] += res.Failed
			if !res.Correct {
				incorrect[w]++
			}
			fmt.Fprintf(os.Stderr, "run %2d %-6s correct=%v %s\n", seed, w, res.Correct, strings.Join(line, " "))
		}
	}
	worst := 0.0
	for _, w := range names {
		fmt.Printf("\n%s: %d runs, seeds 1..%d, %ds each; error_rate %.6g (%d of %d rows), %d runs not correct\n",
			w, *runs, *runs, bf.RunSeconds,
			ratio(float64(failed[w]), float64(attempted[w])), failed[w], attempted[w], incorrect[w])
		fmt.Printf("  %-14s %-4s %10s %10s %10s %10s %10s %8s %6s %12s\n",
			"metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound", "spread/bound")
		for _, m := range bf.EndToEnd {
			xs := values[w][m.Name]
			q1, q2, q3 := quartiles(xs)
			spread := ratio(q3-q1, q2)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			sb := ratio(spread, m.Bound)
			worst = math.Max(worst, sb)
			fmt.Printf("  %-14s %-4s %10.4g %10.4g %10.4g %10.4g %10.4g %8.4f %6.2f %12.3f\n",
				m.Name, m.Unit, q2, q1, q3, lo, hi, spread, m.Bound, sb)
		}
	}
	fmt.Printf("\nworst spread/bound over every metric: %.3f\n", worst)
	return 0
}

// lastLine parses the result object on the last line of a run's output.
func lastLine(out []byte) (runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r runResult
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("last output line is not a result: %w", err)
	}
	return r, nil
}
