package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

//go:embed golden.json
var goldenJSON []byte

//go:embed paper.json
var paperJSON []byte

// goldenFile is golden.json: per-row output digests of every workload at
// defaultSeed and the benchmark scale they were generated at.
type goldenFile struct {
	Seed      int64                     `json:"seed"`
	Scale     map[string]int            `json:"scale"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	PaperErrPP float64           `json:"paper_err_pp"`
	Rows       map[string]string `json:"rows"` // row name → digest
}

// scale lists the constants the goldens depend on.
func scale() map[string]int {
	return map[string]int{
		"fig12_instructions":    fig12Instructions,
		"fig13_instructions":    fig13Instructions,
		"fig13_mixes_per_group": fig13MixesPerGroup,
		"fig13_mix_seed":        fig13MixSeed,
		"table1_iterations":     table1Iterations,
	}
}

// loadGolden returns the goldens for one workload, or nil when the run's
// seed has none (the output check then reports "unchecked").
func loadGolden(name string, seed int64) (*goldenWorkload, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	for k, v := range scale() {
		if g.Scale[k] != v {
			return nil, fmt.Errorf("golden.json was generated at %s=%d, the benchmark runs %d; regenerate it with `run.sh golden`", k, g.Scale[k], v)
		}
	}
	if seed != g.Seed {
		return nil, nil
	}
	w, ok := g.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("golden.json has no entry for workload %q", name)
	}
	return &w, nil
}

// paperRef is one published value of paper.json, with where it came from.
type paperRef struct {
	Key    string  `json:"key"`
	Paper  float64 `json:"paper"`
	Unit   string  `json:"unit"`
	Source string  `json:"source"`
}

func loadPaper(name string) ([]paperRef, error) {
	var refs map[string][]paperRef
	if err := json.Unmarshal(paperJSON, &refs); err != nil {
		return nil, fmt.Errorf("paper.json: %w", err)
	}
	r := refs[name]
	if len(r) == 0 {
		return nil, fmt.Errorf("paper.json has no entries for workload %q", name)
	}
	return r, nil
}

// paperErr is the mean absolute difference, in percentage points, between
// the measured series and the paper's published values.
func paperErr(refs []paperRef, series map[string]float64) (float64, error) {
	var sum float64
	for _, r := range refs {
		v, ok := series[r.Key]
		if !ok {
			return 0, fmt.Errorf("no measured value for paper series %q", r.Key)
		}
		sum += math.Abs(v - r.Paper)
	}
	return sum / float64(len(refs)), nil
}

// checker counts the rows of every artifact call a run makes and checks
// each one: against the goldens when the seed has them, and always against
// the run's first call, so repeated calls must agree bit for bit.
type checker struct {
	golden *goldenWorkload
	refs   []paperRef

	first    []row
	firstErr float64
	haveErr  bool

	attempted, failed int
	problems          []string
}

func newChecker(name string, seed int64) (*checker, error) {
	g, err := loadGolden(name, seed)
	if err != nil {
		return nil, err
	}
	refs, err := loadPaper(name)
	if err != nil {
		return nil, err
	}
	return &checker{golden: g, refs: refs}, nil
}

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// expected is the number of rows one call should return.
func (c *checker) expected() int {
	if c.golden != nil {
		return len(c.golden.Rows)
	}
	return len(c.first)
}

// rows checks one call's rows; a call that failed outright counts every
// expected row as failed.
func (c *checker) rows(label string, rows []row, err error) {
	if err != nil {
		n := max(c.expected(), 1)
		c.attempted += n
		c.failed += n
		c.problem("%s: %v", label, err)
		return
	}
	if c.first == nil {
		c.first = rows
	}
	if len(rows) != len(c.first) || (c.golden != nil && len(rows) != len(c.golden.Rows)) {
		c.problem("%s: %d rows, want %d", label, len(rows), c.expected())
	}
	c.attempted += max(len(rows), c.expected())
	c.failed += max(c.expected()-len(rows), 0)
	for i, r := range rows {
		bad := false
		if c.golden != nil && c.golden.Rows[r.Name] != r.Digest {
			bad = true
			c.problem("%s: row %s digest %s, golden %q", label, r.Name, r.Digest, c.golden.Rows[r.Name])
		}
		if i >= len(c.first) || c.first[i] != r {
			bad = true
			c.problem("%s: row %s differs from the run's first call", label, r.Name)
		}
		if bad {
			c.failed++
		}
	}
}

// paper records one call's paper error, which must repeat exactly.
func (c *checker) paper(label string, series map[string]float64) (float64, error) {
	e, err := paperErr(c.refs, series)
	if err != nil {
		return 0, err
	}
	if !c.haveErr {
		c.firstErr, c.haveErr = e, true
		if c.golden != nil && e != c.golden.PaperErrPP {
			c.problem("%s: paper_err_pp %v, golden %v", label, e, c.golden.PaperErrPP)
		}
	} else if e != c.firstErr {
		c.problem("%s: paper_err_pp %v did not repeat (first call %v)", label, e, c.firstErr)
	}
	return e, nil
}

func (c *checker) correct() bool { return len(c.problems) == 0 && c.failed == 0 }

func (c *checker) goldenState() string {
	if c.golden == nil {
		return "unchecked (no goldens for this seed)"
	}
	return "checked"
}

func (c *checker) report() {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
}
