// Command emsperf is the repository's benchmark. It drives the EMS pipeline
// through the public functions of its packages on one of three workloads,
// checks every op's output, and prints one JSON report as the last line of
// standard output: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced pass. README.md describes the workloads, the
// metrics and the rules that keep the numbers steady.
//
// Build and run it from the checkout root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload engine-ladder --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// env records where and how a report was measured; it is printed on the line
// before the report and stored with the trace.
type env struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	GoVersion  string   `json:"go_version"`
	Ops        int      `json:"ops"`
	RatePerSec float64  `json:"rate_per_s,omitempty"`
	CPUPerWall float64  `json:"cpu_per_wall"`
	Digest     string   `json:"digest"`
	Problems   []string `json:"problems,omitempty"`
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scratch holds temporary data dirs and the written trace.
	scratch string
}

func main() {
	root := flag.String("root", ".", "checkout root; scratch files go to <root>/.bench_build")
	workload := flag.String("workload", "", "engine-ladder, ingest-wide or serve-durable")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "nominal run length; fixes the op count of the run")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "emsperf: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scratch:  filepath.Join(*root, ".bench_build", "run"),
	}
	rep, e, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsperf:", err)
		os.Exit(1)
	}
	for _, p := range e.Problems {
		fmt.Fprintln(os.Stderr, "emsperf: check failed:", p)
	}
	envLine, _ := json.Marshal(map[string]env{"env": *e})
	fmt.Println(string(envLine))
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its report.
func run(cfg runConfig) (*report, *env, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	e := &env{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	var rep *report
	var err error
	switch cfg.workload {
	case "engine-ladder":
		rep, err = runLibrary(cfg, engineLadder(), e)
	case "ingest-wide":
		rep, err = runLibrary(cfg, ingestWide(), e)
	case "serve-durable":
		rep, err = runServe(cfg, serveDurable(), e)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want engine-ladder, ingest-wide or serve-durable)", cfg.workload)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Correct = len(e.Problems) == 0
	return rep, e, nil
}
