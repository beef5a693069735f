package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/ems"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/label"
	"repro/internal/matching"
)

const mib = 1 << 20

// libraryWarmups is the number of untimed warm-up passes (one op per rung)
// before the timed phase; setup_s is their median time.
const libraryWarmups = 9

// selectionThreshold is ems.Match's default selection threshold.
const selectionThreshold = 0.1

// libraryWorkload is a closed loop with one caller: each op parses both logs,
// runs ems.Match with the workload's options and encodes the result.
type libraryWorkload struct {
	name  string
	rungs []rung
	// models fixed process models per rung, each recorded recordings times
	// from the run's seed.
	models, recordings int
	// passesPerSecond passes over the pair set make one nominal second, so a
	// run has len(pairs) * round(seconds * passesPerSecond) ops.
	passesPerSecond float64
	// labels matches with alpha 0.7 and q-gram cosine label similarity.
	labels bool
	// minDegree and maxDegree, when maxDegree > 0, admit only process
	// models whose reference recording has a log-1 dependency graph of an
	// average degree in [minDegree, maxDegree].
	minDegree, maxDegree float64
}

// engineLadder loads the fixpoint engine: opaque names leave only structure
// to match, and the pairs climb an activity ladder so the cost growth shows.
func engineLadder() *libraryWorkload {
	return &libraryWorkload{
		name: "engine-ladder",
		rungs: []rung{
			{label: "a40", activities: 40, traces: 100, opaqueFraction: 1},
			{label: "a80", activities: 80, traces: 100, opaqueFraction: 1},
			{label: "a120", activities: 120, traces: 100, opaqueFraction: 1},
		},
		models:          5,
		recordings:      8,
		passesPerSecond: 0.25,
		minDegree:       4,
		maxDegree:       20,
	}
}

// ingestWide loads ingestion: few activities, thousands of traces, log 2 as
// XES, and label matching, so parse, graph build and the label matrix carry
// the op while the engine converges in a few cheap rounds.
func ingestWide() *libraryWorkload {
	return &libraryWorkload{
		name: "ingest-wide",
		rungs: []rung{
			{label: "a20", activities: 20, traces: 2000, xesTraces: 200, opaqueFraction: 0.5},
		},
		models:          3,
		recordings:      4,
		passesPerSecond: 1.75,
		labels:          true,
	}
}

func (w *libraryWorkload) options() []ems.Option {
	if w.labels {
		return []ems.Option{ems.WithAlpha(0.7), ems.WithLabelSimilarity(ems.QGramCosine(3))}
	}
	return nil
}

// coreConfig mirrors the engine configuration ems.Match resolves from
// options(); the traced pass checks its output against ems.Match byte for
// byte, so a drift fails the run.
func (w *libraryWorkload) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.FastPath = true
	cfg.Tiled = true
	if w.labels {
		cfg.Alpha = 0.7
		cfg.Labels = label.QGramCosine(3)
	}
	return cfg
}

// modelSeeds returns the fixed process models of each rung: the first
// w.models seeds upward from 1000*(rung+1) whose reference recording (the
// model seed as run seed) passes the degree limit. The choice does not
// depend on the run's seed.
func (w *libraryWorkload) modelSeeds() ([][]int64, error) {
	seeds := make([][]int64, len(w.rungs))
	for ri, rg := range w.rungs {
		for s := int64(1000 * (ri + 1)); len(seeds[ri]) < w.models; s++ {
			if s >= int64(1000*(ri+2)) {
				return nil, fmt.Errorf("%s: fewer than %d models of degree %g to %g", rg.label, w.models, w.minDegree, w.maxDegree)
			}
			if w.maxDegree > 0 {
				p, err := generateOnModel(s, s, "reference", rg.options())
				if err != nil {
					return nil, err
				}
				g, err := depgraph.Build(p.Log1)
				if err != nil {
					return nil, err
				}
				if d := g.AvgDegree(); d < w.minDegree || d > w.maxDegree {
					continue
				}
			}
			seeds[ri] = append(seeds[ri], s)
		}
	}
	return seeds, nil
}

// generate builds the pair set of a run. Rungs interleave so consecutive ops
// alternate sizes.
func (w *libraryWorkload) generate(seed int64) ([]*pairInput, error) {
	models, err := w.modelSeeds()
	if err != nil {
		return nil, err
	}
	master := rand.New(rand.NewSource(seed))
	var pairs []*pairInput
	for m := 0; m < w.models; m++ {
		for r := 0; r < w.recordings; r++ {
			for ri, rg := range w.rungs {
				o := rg.options()
				dislocation(&o, r)
				name := fmt.Sprintf("%s-%s-m%d-r%d", w.name, rg.label, m, r)
				p, err := generateOnModel(models[ri][m], master.Int63(), name, o)
				if err != nil {
					return nil, err
				}
				in, err := encodePair(p, ri, rg.xesTraces)
				if err != nil {
					return nil, err
				}
				pairs = append(pairs, in)
			}
		}
	}
	return pairs, nil
}

// libraryOp is one op: parse both logs, match, encode into buf.
func libraryOp(p *pairInput, opts []ems.Option, buf *bytes.Buffer) (*ems.Result, error) {
	l1, l2, err := parsePair(p)
	if err != nil {
		return nil, err
	}
	res, err := ems.Match(l1, l2, opts...)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	if err := res.WriteJSON(buf); err != nil {
		return nil, err
	}
	return res, nil
}

// libraryRun is the measured timed phase of a library workload.
type libraryRun struct {
	lat       []float64 // per op, seconds
	opErr     []error
	opDigest  [][32]byte
	first     []*ems.Result // first result per pair
	busy      float64       // summed op latency
	wall, cpu float64
	alloc     uint64
}

// measureLibrary runs the timed phase: n ops cycling over pairs.
func measureLibrary(pairs []*pairInput, n int, opts []ems.Option) *libraryRun {
	r := &libraryRun{
		lat:      make([]float64, n),
		opErr:    make([]error, n),
		opDigest: make([][32]byte, n),
		first:    make([]*ems.Result, len(pairs)),
	}
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, wall0 := cpuTime(), time.Now()
	for i := 0; i < n; i++ {
		pi := i % len(pairs)
		t0 := time.Now()
		res, err := libraryOp(pairs[pi], opts, &buf)
		r.lat[i] = time.Since(t0).Seconds()
		if err != nil {
			r.opErr[i] = err
			continue
		}
		r.opDigest[i] = sha256.Sum256(buf.Bytes())
		if r.first[pi] == nil {
			r.first[pi] = res
		}
	}
	r.wall = time.Since(wall0).Seconds()
	r.cpu = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&ms1)
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for _, l := range r.lat {
		r.busy += l
	}
	return r
}

// exactTolerance is how far an exact run, stopped once no pair moved by more
// than Epsilon in a round, may itself sit from the fixpoint: the Banach tail
// Epsilon*ac/(1-ac) with ac = Alpha*C.
func exactTolerance(cfg core.Config) float64 {
	ac := cfg.Alpha * cfg.C
	return cfg.Epsilon * ac / (1 - ac)
}

// pairCheck is the verdict on one pair's output.
type pairCheck struct {
	f, maxErr float64
	ok        bool
}

// checkPair scores res against the pair's ground truth and measures its
// error against an exact reference run; the error must stay within the
// certified bound plus the reference's own tolerance.
func checkPair(p *pairInput, res *ems.Result, opts []ems.Option, cfg core.Config) (pairCheck, string) {
	c := pairCheck{f: ems.Evaluate(res.Mapping, p.truth).FMeasure}
	l1, l2, err := parsePair(p)
	if err != nil {
		return c, fmt.Sprintf("%s: reference parse: %v", p.name, err)
	}
	ref, err := ems.Match(l1, l2, append(append([]ems.Option(nil), opts...), ems.WithExact())...)
	if err != nil {
		return c, fmt.Sprintf("%s: exact reference: %v", p.name, err)
	}
	if len(ref.Sim) != len(res.Sim) {
		return c, fmt.Sprintf("%s: exact reference has %d cells, result %d", p.name, len(ref.Sim), len(res.Sim))
	}
	for i := range ref.Sim {
		c.maxErr = math.Max(c.maxErr, math.Abs(ref.Sim[i]-res.Sim[i]))
	}
	if limit := res.ErrorBound + exactTolerance(cfg); c.maxErr > limit {
		return c, fmt.Sprintf("%s: observed error %.6g exceeds certified bound %.6g (+%.2g reference tolerance)",
			p.name, c.maxErr, res.ErrorBound, exactTolerance(cfg))
	}
	c.ok = true
	return c, ""
}

func runLibrary(cfg runConfig, w *libraryWorkload, e *env) (*report, error) {
	pairs, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	passes := max(1, int(math.Round(float64(cfg.seconds)*w.passesPerSecond)))
	n := len(pairs) * passes
	e.Ops = n
	opts := w.options()
	ccfg := w.coreConfig()

	// Set-up: untimed warm-up passes, one op per rung. Their median time is
	// the program's set-up cost before the first timed op.
	var warm []*pairInput
	for ri := range w.rungs {
		warm = append(warm, pairs[ri])
	}
	var buf bytes.Buffer
	setups := make([]float64, libraryWarmups)
	for k := range setups {
		t0 := time.Now()
		for _, p := range warm {
			if _, err := libraryOp(p, opts, &buf); err != nil {
				e.Problems = append(e.Problems, fmt.Sprintf("warm-up %s: %v", p.name, err))
			}
		}
		setups[k] = time.Since(t0).Seconds()
	}

	m := measureLibrary(pairs, n, opts)

	// Output checks, outside the timed phase.
	checks := make([]pairCheck, len(pairs))
	for pi, p := range pairs {
		if m.first[pi] == nil {
			continue
		}
		var problem string
		checks[pi], problem = checkPair(p, m.first[pi], opts, ccfg)
		if problem != "" {
			e.Problems = append(e.Problems, problem)
		}
	}
	failed := 0
	var fsum float64
	digest := sha256.New()
	// Throughput is taken per pass over the pair set, as completed ops per
	// second of op time, and reported as the median pass.
	passThroughput := make([]float64, passes)
	var passOK int
	var passBusy float64
	for i := 0; i < n; i++ {
		pi := i % len(pairs)
		ok := false
		switch {
		case m.opErr[i] != nil:
			e.Problems = append(e.Problems, fmt.Sprintf("op %d (%s): %v", i, pairs[pi].name, m.opErr[i]))
		case m.opDigest[i] != m.opDigest[pi]:
			e.Problems = append(e.Problems, fmt.Sprintf("op %d (%s): result differs from the pair's first op", i, pairs[pi].name))
		case checks[pi].ok:
			ok = true
			fsum += checks[pi].f
		}
		if ok {
			passOK++
		} else {
			failed++
		}
		passBusy += m.lat[i]
		if pi == len(pairs)-1 {
			passThroughput[i/len(pairs)] = float64(passOK) / passBusy
			passOK, passBusy = 0, 0
		}
		if i < len(pairs) {
			digest.Write(m.opDigest[i][:])
		}
	}
	e.Digest = hex.EncodeToString(digest.Sum(nil))
	e.CPUPerWall = m.cpu / m.wall

	rep := &report{Attempted: n, Failed: failed}
	if !cfg.trace {
		rep.set("throughput_ops", median(passThroughput), "ops/s")
		rep.set("latency_p50_s", median(m.lat), "s")
		rep.set("latency_p90_s", percentile(m.lat, 0.9), "s")
		rep.set("f_measure", fsum/float64(n), "ratio")
		rep.set("ok_ratio", float64(n-failed)/float64(n), "ratio")
		rep.set("alloc_mib_per_op", float64(m.alloc)/mib/float64(n), "MiB")
		rep.set("setup_s", median(setups), "s")
		return rep, nil
	}

	// Traced pass over the same ops.
	tr := newTracer()
	var agg layerCounts
	for i := 0; i < n; i++ {
		pi := i % len(pairs)
		c, err := tracedOp(tr, i, pairs[pi], ccfg, &buf)
		if err != nil {
			e.Problems = append(e.Problems, fmt.Sprintf("traced op %d (%s): %v", i, pairs[pi].name, err))
			continue
		}
		if want := m.first[pi]; want != nil {
			if c.digest != m.opDigest[pi] || c.rounds != want.Rounds || c.evals != want.Evaluations ||
				c.pruned != want.Pruned || c.bound != want.ErrorBound {
				e.Problems = append(e.Problems, fmt.Sprintf("traced op %d (%s): per-direction computation disagrees with ems.Match", i, pairs[pi].name))
			}
		}
		agg.add(c)
	}
	for pi := range pairs {
		agg.maxErr = math.Max(agg.maxErr, checks[pi].maxErr)
	}
	self := tr.selfTimes()
	opTotal := tr.rootTotal()
	agg.report(rep, self, ccfg)
	rep.set("bench.core_share", layerShare(self, opTotal, "core"), "ratio")
	rep.set("bench.ingest_share", layerShare(self, opTotal, "eventlog", "depgraph", "label"), "ratio")
	rep.set("bench.trace_overhead_ratio", opTotal/m.busy, "ratio")
	rep.set("bench.cpu_per_wall", e.CPUPerWall, "ratio")
	// A ladder reports the median op time of each rung.
	for ri, rg := range w.rungs {
		if len(w.rungs) == 1 {
			break
		}
		var lat []float64
		for i := 0; i < n; i++ {
			if pairs[i%len(pairs)].rung == ri {
				lat = append(lat, m.lat[i])
			}
		}
		rep.set("ems.match_s."+rg.label, median(lat), "s")
	}
	fillPerLayer(rep)
	path := filepath.Join(cfg.scratch, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(path, e); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerCounts accumulates the per-op counts of the traced pass.
type layerCounts struct {
	ops                     int
	events, vertices, edges int
	rounds, evals, pruned   int
	boundSum, boundMax      float64
	predicted, resultBytes  int64
	maxErr                  float64
}

func (a *layerCounts) add(c opCounts) {
	a.ops++
	a.events += c.events
	a.vertices += c.vertices
	a.edges += c.edges
	a.rounds += c.rounds
	a.evals += c.evals
	a.pruned += c.pruned
	a.boundSum += c.bound
	a.boundMax = math.Max(a.boundMax, c.bound)
	a.predicted += c.predicted
	a.resultBytes += c.resultBytes
}

// report sets the library-layer metrics: times are self time per op, counts
// are per op.
func (a *layerCounts) report(rep *report, self map[string]float64, cfg core.Config) {
	perOp := func(x float64) float64 {
		if a.ops == 0 {
			return 0
		}
		return x / float64(a.ops)
	}
	for _, t := range []struct{ metric, span string }{
		{"eventlog.parse_csv_s", "eventlog.parse_csv"},
		{"eventlog.parse_xes_s", "eventlog.parse_xes"},
		{"depgraph.build_s", "depgraph.build"},
		{"label.matrix_s", "label.matrix"},
		{"core.agreement_cache_s", "core.agreement_cache"},
		{"core.iterate_fwd_s", "core.iterate_fwd"},
		{"core.iterate_bwd_s", "core.iterate_bwd"},
		{"core.estimate_certify_s", "core.estimate_certify"},
		{"matching.select_s", "matching.select"},
		{"ems.encode_s", "ems.encode"},
	} {
		rep.set(t.metric, perOp(self[t.span]), "s")
	}
	rep.set("eventlog.events", perOp(float64(a.events)), "count")
	rep.set("depgraph.vertices", perOp(float64(a.vertices)), "count")
	rep.set("depgraph.edges", perOp(float64(a.edges)), "count")
	rep.set("core.rounds", perOp(float64(a.rounds)), "count")
	rep.set("core.evaluations", perOp(float64(a.evals)), "count")
	rep.set("core.pruned_skips", perOp(float64(a.pruned)), "count")
	if a.evals+a.pruned > 0 {
		rep.set("core.pruned_ratio", float64(a.pruned)/float64(a.evals+a.pruned), "ratio")
	}
	rep.set("core.error_bound", perOp(a.boundSum), "ratio")
	budget := cfg.FastPathBudget
	if budget <= 0 {
		budget = core.DefaultFastPathBudget
	}
	rep.set("core.bound_over_budget", a.boundMax/budget, "ratio")
	rep.set("core.max_abs_error", a.maxErr, "ratio")
	rep.set("core.predicted_heap_mib", perOp(float64(a.predicted))/mib, "MiB")
	rep.set("ems.result_kib", perOp(float64(a.resultBytes))/1024, "KiB")
}

// opCounts are the counts of one traced op.
type opCounts struct {
	events, vertices, edges int
	rounds, evals, pruned   int
	bound                   float64
	predicted, resultBytes  int64
	digest                  [32]byte
}

// tracedOp performs one op as separate public calls, one span per call: the
// two parses, the graph builds, one core computation per direction (stepped
// to completion, finished, read out), selection and encoding. Its output
// must equal ems.Match's for the pair.
func tracedOp(tr *tracer, op int, p *pairInput, cfg core.Config, buf *bytes.Buffer) (opCounts, error) {
	var c opCounts
	root := tr.start("op", -1, op)
	s := tr.start("eventlog.parse_csv", root, op)
	l1, err := ems.ReadCSV(bytes.NewReader(p.csv1), p.name+"/1")
	tr.end(s)
	if err != nil {
		return c, err
	}
	var l2 *ems.Log
	if p.xes2 {
		s = tr.start("eventlog.parse_xes", root, op)
		l2, err = ems.ReadXES(bytes.NewReader(p.log2))
	} else {
		s = tr.start("eventlog.parse_csv", root, op)
		l2, err = ems.ReadCSV(bytes.NewReader(p.log2), p.name+"/2")
	}
	tr.end(s)
	if err != nil {
		return c, err
	}
	s = tr.start("depgraph.build", root, op)
	g1, err1 := buildGraph(l1)
	g2, err2 := buildGraph(l2)
	tr.end(s)
	if err1 != nil || err2 != nil {
		return c, fmt.Errorf("graph build: %v, %v", err1, err2)
	}
	fwd, err := tracedDirection(tr, root, op, "fwd", g1, g2, cfg, core.Forward)
	if err != nil {
		return c, err
	}
	bwd, err := tracedDirection(tr, root, op, "bwd", g1, g2, cfg, core.Backward)
	if err != nil {
		return c, err
	}
	// Combine the directions as core does for Direction Both.
	sim := make([]float64, len(fwd.Sim))
	for i := range sim {
		sim[i] = (fwd.Sim[i] + bwd.Sim[i]) / 2
	}
	s = tr.start("matching.select", root, op)
	mapping, err := matching.SelectWith(matching.MaxTotal, fwd.Names1, fwd.Names2, sim, selectionThreshold, composite.SplitName)
	tr.end(s)
	if err != nil {
		return c, err
	}
	res := &ems.Result{
		Names1:      fwd.Names1,
		Names2:      fwd.Names2,
		Sim:         sim,
		Mapping:     mapping,
		Evaluations: fwd.Evaluations + bwd.Evaluations,
		Rounds:      max(fwd.Rounds, bwd.Rounds),
		Estimated:   fwd.Estimated || bwd.Estimated,
		ErrorBound:  math.Max(fwd.ErrorBound, bwd.ErrorBound),
		Pruned:      fwd.Pruned + bwd.Pruned,
	}
	s = tr.start("ems.encode", root, op)
	buf.Reset()
	err = res.WriteJSON(buf)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return c, err
	}
	for _, l := range []*ems.Log{l1, l2} {
		for _, t := range l.Traces {
			c.events += len(t)
		}
	}
	c.vertices = g1.N() + g2.N()
	c.edges = g1.EdgeCount() + g2.EdgeCount()
	c.rounds, c.evals, c.pruned, c.bound = res.Rounds, res.Evaluations, res.Pruned, res.ErrorBound
	both := cfg
	both.Direction = core.Both
	c.predicted = core.EstimateCost(g1, g2, both).Bytes
	c.resultBytes = int64(buf.Len())
	c.digest = sha256.Sum256(buf.Bytes())
	return c, nil
}

// buildGraph is ems.Match's graph construction at default options.
func buildGraph(l *ems.Log) (*depgraph.Graph, error) {
	g, err := depgraph.Build(l)
	if err != nil {
		return nil, err
	}
	return g.AddArtificial()
}

// tracedDirection runs one direction as its own computation: construction
// (label matrix and agreement cache as child spans), exact rounds, the
// estimate and certificate, and the read-out.
func tracedDirection(tr *tracer, root, op int, dir string, g1, g2 *depgraph.Graph, cfg core.Config, d core.Direction) (*core.Result, error) {
	cfg.Direction = d
	s := tr.start("core.new_computation", root, op)
	cfg.Span = tr.hook(s, op)
	c, err := core.NewComputation(g1, g2, cfg, nil)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.start("core.iterate_"+dir, root, op)
	for {
		done, err := c.Step()
		if err != nil {
			tr.end(s)
			return nil, err
		}
		if done {
			break
		}
	}
	tr.end(s)
	s = tr.start("core.estimate_certify", root, op)
	err = c.Finish()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.start("core.result", root, op)
	r, err := c.Result()
	tr.end(s)
	return r, err
}
