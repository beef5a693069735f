package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// The smoke test runs every workload at a tiny scale, traced and untraced,
// twice at one seed. It asserts the reported metric names against
// BENCHMARK.json, the op counts, the output checks and the determinism of
// the digest and the counts. It never asserts a time.

func tinyLadder() *libraryWorkload {
	w := engineLadder()
	// The rung labels keep naming the full-size rungs they stand in for.
	for i, acts := range []int{10, 14, 18} {
		w.rungs[i].activities, w.rungs[i].traces = acts, 20
	}
	w.models, w.recordings, w.passesPerSecond = 1, 2, 2
	return w
}

func tinyIngest() *libraryWorkload {
	w := ingestWide()
	w.rungs[0].activities, w.rungs[0].traces, w.rungs[0].xesTraces = 8, 120, 15
	w.models, w.recordings, w.passesPerSecond = 1, 2, 2
	return w
}

func tinyServe() *serveWorkload {
	w := serveDurable()
	w.rate, w.minActs, w.maxActs, w.traces = 30, 5, 8, 12
	return w
}

// declared reads the metric names of one section of BENCHMARK.json.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(rep *report) []string {
	var names []string
	for name, m := range rep.Metrics {
		names = append(names, name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func TestDeclaredMetricsMatchProgram(t *testing.T) {
	var e2e, layer []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		layer = append(layer, m.name+" "+m.unit)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	if got, want := strings.Join(e2e, ","), strings.Join(declared(t, "end_to_end"), ","); got != want {
		t.Errorf("end-to-end metrics:\nprogram   %s\nBENCHMARK %s", got, want)
	}
	if got, want := strings.Join(layer, ","), strings.Join(declared(t, "per_layer"), ","); got != want {
		t.Errorf("per-layer metrics:\nprogram   %s\nBENCHMARK %s", got, want)
	}
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	workloads := []struct {
		name string
		run  func(runConfig, *env) (*report, error)
	}{
		{"engine-ladder", func(c runConfig, e *env) (*report, error) { return runLibrary(c, tinyLadder(), e) }},
		{"ingest-wide", func(c runConfig, e *env) (*report, error) { return runLibrary(c, tinyIngest(), e) }},
		{"serve-durable", func(c runConfig, e *env) (*report, error) { return runServe(c, tinyServe(), e) }},
	}
	e2e, layer := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var first *report
				var firstDigest string
				for rep := 0; rep < 2; rep++ {
					cfg := runConfig{workload: w.name, seed: 7, seconds: 1, trace: traced, scratch: t.TempDir()}
					e := &env{}
					r, err := w.run(cfg, e)
					if err != nil {
						t.Fatal(err)
					}
					if len(e.Problems) > 0 {
						t.Fatalf("output checks failed: %v", e.Problems)
					}
					if r.Attempted != e.Ops || r.Attempted < 1 || r.Failed != 0 {
						t.Fatalf("attempted %d of %d ops, failed %d", r.Attempted, e.Ops, r.Failed)
					}
					want := e2e
					if traced {
						want = layer
					}
					if got := reported(r); strings.Join(got, ",") != strings.Join(want, ",") {
						t.Fatalf("reported metrics %v, want %v", got, want)
					}
					if first == nil {
						first, firstDigest = r, e.Digest
						continue
					}
					if e.Digest != firstDigest {
						t.Errorf("result digest changed between runs at one seed")
					}
					for name, m := range r.Metrics {
						want := first.Metrics[name].Value
						switch {
						case name == "journal.bytes_per_job":
							// The process's write counter moves by a few
							// bytes between runs; the record counts do not.
							if math.Abs(m.Value-want) > want/1000 {
								t.Errorf("%s = %v, first run %v", name, m.Value, want)
							}
						case name == "f_measure" || name == "ok_ratio" || strings.HasPrefix(name, "journal.") ||
							strings.HasPrefix(name, "core.") && !strings.HasSuffix(name, "_s"):
							if m.Value != want {
								t.Errorf("%s = %v, first run %v", name, m.Value, want)
							}
						}
					}
				}
				if traced {
					checkLoadedLayers(t, w.name, first)
				}
			}
		})
	}
}

// checkLoadedLayers asserts that each workload's traced run measured the
// layers it exists to load.
func checkLoadedLayers(t *testing.T, workload string, r *report) {
	t.Helper()
	var nonzero []string
	switch workload {
	case "engine-ladder":
		nonzero = []string{"core.iterate_fwd_s", "core.iterate_bwd_s", "core.evaluations", "ems.match_s.a120", "matching.select_s"}
	case "ingest-wide":
		nonzero = []string{"eventlog.parse_csv_s", "eventlog.parse_xes_s", "depgraph.build_s", "label.matrix_s"}
	case "serve-durable":
		nonzero = []string{"server.submit_s", "server.run_s", "journal.syncs_per_job", "journal.writes_per_job", "server.cache_hit_ratio"}
	}
	for _, name := range nonzero {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
		}
	}
}
