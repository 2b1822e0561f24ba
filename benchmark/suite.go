package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// suiteRecord is the one machine-readable record of an invocation.
type suiteRecord struct {
	Provenance provenance    `json:"provenance"`
	Seed       int64         `json:"seed"`
	Seconds    float64       `json:"window_seconds"`
	Sets       [][]runRecord `json:"sets"`
	Check      []checkRow    `json:"check,omitempty"`
}

// checkRow compares one end-to-end metric of one workload across the two
// sets of a -check run.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// runSuite runs every workload untraced and traced, each run in a fresh
// child process so that no run inherits another's heap, page cache state or
// connection pools. With -check it does so twice, in opposite workload
// order, and compares the end-to-end metrics.
func runSuite(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	suite := suiteRecord{Provenance: newProvenance(), Seed: o.seed, Seconds: o.seconds}
	order := make([]string, len(workloads))
	for i, w := range workloads {
		order[i] = w.Name
	}
	sets := 1
	if o.check {
		sets = 2
	}
	for s := 0; s < sets; s++ {
		var set []runRecord
		for _, name := range order {
			for trace := 0; trace <= 1; trace++ {
				rec, err := runChild(o, name, trace, s)
				if err != nil {
					return err
				}
				set = append(set, *rec)
			}
		}
		suite.Sets = append(suite.Sets, set)
		slices.Reverse(order)
	}
	printSummary(suite.Sets[0])
	failed := false
	if o.check {
		suite.Check = compareSets(suite.Sets[0], suite.Sets[1])
		fmt.Printf("\n%-12s %-16s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
		for _, row := range suite.Check {
			mark := ""
			if !row.Within {
				mark, failed = "  OUTSIDE", true
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %7.1f%% %6.0f%%%s\n",
				row.Workload, row.Metric, row.First, row.Second, 100*row.Spread, 100*row.Bound, mark)
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, suite); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("check: two runs of the same code differ by more than the bound")
	}
	return nil
}

// runChild re-executes this binary for one run and reads back its record.
func runChild(o options, name string, trace, set int) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	recPath := filepath.Join(o.outDir, fmt.Sprintf("%s.set%d.trace%d.json", name, set, trace))
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace),
		"-json", recPath, "-out", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	var rec runRecord
	if err := readJSON(recPath, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// printSummary prints this machine's sizing table: one row per workload
// with the numbers that say which regime it landed in, then the ladder as
// the median over the traced runs.
func printSummary(set []runRecord) {
	fmt.Printf("\n%-12s %10s %10s %10s %10s %8s %8s %8s\n",
		"workload", "req/s", "p50 us", "p95 us", "cpu ms", "local", "remote", "disk")
	byName := map[string][2]*runRecord{}
	for i := range set {
		pair := byName[set[i].Workload]
		pair[set[i].Trace] = &set[i]
		byName[set[i].Workload] = pair
	}
	ladder := map[string][]float64{}
	for _, w := range workloads {
		e2e, layers := byName[w.Name][0], byName[w.Name][1]
		if e2e == nil || layers == nil {
			continue
		}
		fmt.Printf("%-12s %10.0f %10.1f %10.1f %10.4f %8.3f %8.3f %8.3f\n", w.Name,
			e2e.Metrics["req_per_s"].Value, e2e.Metrics["read_p50_us"].Value, e2e.Metrics["read_p95_us"].Value,
			e2e.Metrics["cpu_ms_per_req"].Value, layers.Metrics["node.local_hit_ratio"].Value,
			layers.Metrics["node.remote_hit_ratio"].Value, layers.Metrics["node.disk_ratio"].Value)
		for name, v := range layers.Metrics {
			ladder[name] = append(ladder[name], v.Value)
		}
	}
	medians := map[string]metricValue{}
	for name, v := range ladder {
		medians[name] = metricValue{Value: median(v)}
	}
	fmt.Println()
	printLadder(medians)
}

// compareSets reports, for every end-to-end metric of every workload, how
// far two sets of runs of the same code disagree, as a share of their mean.
func compareSets(first, second []runRecord) []checkRow {
	find := func(set []runRecord, name string) *runRecord {
		for i := range set {
			if set[i].Workload == name && set[i].Trace == 0 {
				return &set[i]
			}
		}
		return nil
	}
	var rows []checkRow
	for _, w := range workloads {
		a, b := find(first, w.Name), find(second, w.Name)
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			spread := ratio(math.Abs(x-y), (x+y)/2)
			rows = append(rows, checkRow{w.Name, d.Name, x, y, spread, d.Bound, spread <= d.Bound})
		}
	}
	return rows
}
