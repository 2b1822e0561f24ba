package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// FigureResult is one figure's data plus the real time it took to produce —
// the machine-readable companion to Figure.Format.
type FigureResult struct {
	Name   string   `json:"name"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	WallMS float64  `json:"wall_ms"`
	Series []Series `json:"series"`
}

// BenchResults is the schema of BENCH_results.json: everything a later PR
// needs to compare perf trajectories — what was run, at what scale and
// parallelism, how long each figure and each underlying sweep point took,
// and the figure data itself.
type BenchResults struct {
	GeneratedAt string `json:"generated_at"`
	Seed        int64  `json:"seed"`
	Requests    int    `json:"requests"`
	Parallelism int    `json:"parallelism"`
	// GoMaxProcs/NumCPU/GoVersion record the machine the numbers came from:
	// a 1-CPU CI container and a 16-core dev box produce legitimately
	// different throughput, and contention-sensitive results (parallel
	// benchmarks) are only comparable at equal NumCPU.
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	TotalWallMS float64 `json:"total_wall_ms"`
	// Notes carries free-form perf annotations from the invoker (e.g.
	// engine-bench numbers, serial-vs-parallel wall-clock comparisons).
	Notes   map[string]string `json:"notes,omitempty"`
	Figures []FigureResult    `json:"figures"`
	Points  []PointTiming     `json:"points"`
}

// NewBenchResults starts a results log for one ccbench invocation.
func NewBenchResults(opt Options, gomaxprocs int) *BenchResults {
	return &BenchResults{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        opt.Seed,
		Requests:    opt.TargetRequests,
		Parallelism: opt.parallelism(),
		GoMaxProcs:  gomaxprocs,
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
	}
}

// AddFigure records a produced figure and its wall-clock cost.
func (r *BenchResults) AddFigure(f *Figure, wall time.Duration) {
	r.Figures = append(r.Figures, FigureResult{
		Name:   f.Name,
		Title:  f.Title,
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		WallMS: float64(wall) / float64(time.Millisecond),
		Series: f.Series,
	})
}

// Write finalizes the log with the harness's per-point timings and the total
// elapsed time, then writes it as indented JSON to path.
func (r *BenchResults) Write(path string, h *Harness, total time.Duration) error {
	if h != nil {
		r.Points = h.Timings()
	}
	r.TotalWallMS = float64(total) / float64(time.Millisecond)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
