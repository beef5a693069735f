package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/ems"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/server"
)

// serveWorkload is emsd in-process under an open loop: one goroutine sends
// POST /v1/jobs on a seeded schedule through Server.Handler, and every job
// is timed from its scheduled send time until its result is fetched.
type serveWorkload struct {
	// rate is the submission rate per second; a run sends rate * seconds
	// jobs.
	rate float64
	// Fresh pairs have minActs..maxActs activities and traces traces.
	minActs, maxActs, traces int
}

const (
	// Every repeatEvery-th submission repeats one of the last recent fresh
	// pairs, so the result cache (or in-flight coalescing) answers it.
	repeatEvery, recent = 4, 4
	// serveSetups is the number of server.New calls on fresh data dirs;
	// setup_s is their median.
	serveSetups = 15
	// serveWarmups untimed jobs on pairs outside the op set run before each
	// timed replay.
	serveWarmups = 20
)

func serveDurable() *serveWorkload {
	return &serveWorkload{rate: 40, minActs: 12, maxActs: 20, traces: 40}
}

// serveJob is one scheduled submission.
type serveJob struct {
	pair int
	at   time.Duration // offset of the scheduled send from the phase start
	// fresh marks the first submission of a pair, the one the server
	// computes; repeats are answered from the cache or coalesced onto it.
	fresh bool
}

// generate draws the distinct pairs, their request bodies, the schedule and
// the bodies of the untimed warm-up jobs.
func (w *serveWorkload) generate(seed int64, n int) (pairs []*pairInput, bodies [][]byte, jobs []serveJob, warm [][]byte, err error) {
	rng := rand.New(rand.NewSource(seed))
	jobs = make([]serveJob, n)
	for i := range jobs {
		// Evenly spaced sends, each moved by up to a quarter of the gap:
		// the load is the same in every run, and bursts of a random
		// arrival process no longer decide how long jobs queue.
		at := (float64(i) + 0.5 + (rng.Float64()-0.5)/2) / w.rate
		jobs[i].at = time.Duration(at * float64(time.Second))
		if i%repeatEvery == repeatEvery-1 && len(pairs) > 0 {
			jobs[i].pair = len(pairs) - 1 - rng.Intn(min(recent, len(pairs)))
			continue
		}
		in, body, err := w.freshPair(rng, fmt.Sprintf("serve-%d", len(pairs)), len(pairs))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		pairs = append(pairs, in)
		bodies = append(bodies, body)
		jobs[i].pair, jobs[i].fresh = len(pairs)-1, true
	}
	for i := 0; i < serveWarmups; i++ {
		_, body, err := w.freshPair(rng, fmt.Sprintf("warm-%d", i), i)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		warm = append(warm, body)
	}
	return pairs, bodies, jobs, warm, nil
}

// freshPair draws one pair and its request body.
func (w *serveWorkload) freshPair(rng *rand.Rand, name string, i int) (*pairInput, []byte, error) {
	o := dataset.Options{
		Events:         w.minActs + rng.Intn(w.maxActs-w.minActs+1),
		Traces:         w.traces,
		OpaqueFraction: 1,
		FrequencySkew:  0.5,
	}
	dislocation(&o, i)
	p, err := dataset.GeneratePair(rng, name, o)
	if err != nil {
		return nil, nil, err
	}
	in, err := encodePair(p, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(server.JobRequest{
		Log1: server.LogInput{Name: in.name + "/1", CSV: string(in.csv1)},
		Log2: server.LogInput{Name: in.name + "/2", CSV: string(in.log2)},
	})
	return in, body, err
}

// warmUp runs untimed jobs one at a time, each to its fetched result.
func warmUp(srv *server.Server, bodies [][]byte) error {
	h := srv.Handler()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var view server.JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || rec.Code != http.StatusAccepted {
			return fmt.Errorf("warm-up submit: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		job, ok := srv.Job(view.ID)
		if !ok {
			return fmt.Errorf("warm-up job %s unknown to the server", view.ID)
		}
		<-job.Done()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("warm-up result: HTTP %d", rec.Code)
		}
	}
	return nil
}

// servePass is one replay of the schedule against one server.
type servePass struct {
	lat, late              []float64 // seconds
	submit, wait, get, run []float64 // seconds
	cacheHit               []bool
	results                [][]byte
	errs                   []string
	wall, cpu              float64
	alloc                  uint64
}

// replay sends the jobs on their schedule and waits for every result.
func replay(srv *server.Server, jobs []serveJob, bodies [][]byte) *servePass {
	n := len(jobs)
	p := &servePass{
		lat: make([]float64, n), late: make([]float64, n),
		submit: make([]float64, n), wait: make([]float64, n), get: make([]float64, n), run: make([]float64, n),
		cacheHit: make([]bool, n), results: make([][]byte, n), errs: make([]string, n),
	}
	h := srv.Handler()
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(j.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		p.late[i] = sent.Sub(due).Seconds()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(bodies[j.pair])))
		submitted := time.Now()
		p.submit[i] = submitted.Sub(sent).Seconds()
		p.lat[i] = submitted.Sub(due).Seconds()
		if rec.Code != http.StatusAccepted {
			p.errs[i] = fmt.Sprintf("submit: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			continue
		}
		var view server.JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			p.errs[i] = fmt.Sprintf("submit: %v", err)
			continue
		}
		job, ok := srv.Job(view.ID)
		if !ok {
			p.errs[i] = fmt.Sprintf("submit: job %s unknown to the server", view.ID)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-job.Done()
			done := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil))
			end := time.Now()
			p.wait[i] = done.Sub(submitted).Seconds()
			p.get[i] = end.Sub(done).Seconds()
			p.lat[i] = end.Sub(due).Seconds()
			v := job.View()
			p.run[i] = v.WallMS / 1000
			p.cacheHit[i] = v.CacheHit
			if rec.Code != http.StatusOK {
				p.errs[i] = fmt.Sprintf("result: HTTP %d (job %s)", rec.Code, v.Status)
				return
			}
			p.results[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.cpu = (cpuTime() - cpu0).Seconds()
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// freshLatencies returns the latencies of the jobs the server computed.
func (p *servePass) freshLatencies(jobs []serveJob) []float64 {
	var out []float64
	for i, l := range p.lat {
		if jobs[i].fresh && p.errs[i] == "" {
			out = append(out, l)
		}
	}
	return out
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// startServer creates a server; a non-empty scratch gives it a fresh data
// dir there. stop shuts the server down and removes the dir.
func startServer(scratch string) (srv *server.Server, elapsed time.Duration, stop func() error, err error) {
	cfg := server.Config{Log: quietLog}
	if scratch != "" {
		if cfg.DataDir, err = os.MkdirTemp(scratch, "data-"); err != nil {
			return nil, 0, nil, err
		}
	}
	t0 := time.Now()
	srv, err = server.New(cfg)
	elapsed = time.Since(t0)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, 0, nil, err
	}
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cfg.DataDir != "" {
			if rerr := os.RemoveAll(cfg.DataDir); err == nil {
				err = rerr
			}
		}
		return err
	}
	return srv, elapsed, stop, nil
}

// checkServed compares every served result with the library's ems.Match on
// the same pair and marks mismatching jobs as errors.
func checkServed(p *servePass, jobs []serveJob, refs []*ems.Result) {
	for i, j := range jobs {
		if p.errs[i] != "" {
			continue
		}
		got, err := ems.ReadResultJSON(bytes.NewReader(p.results[i]))
		switch {
		case err != nil:
			p.errs[i] = fmt.Sprintf("result: %v", err)
		case got.Degraded != "":
			p.errs[i] = fmt.Sprintf("result degraded to %s", got.Degraded)
		case !sameResult(got, refs[j.pair]):
			p.errs[i] = "result differs from ems.Match on the same pair"
		}
	}
}

// sameResult reports whether two results carry the same similarity matrix
// and mapping.
func sameResult(a, b *ems.Result) bool {
	if len(a.Sim) != len(b.Sim) || len(a.Mapping) != len(b.Mapping) {
		return false
	}
	for i := range a.Sim {
		if a.Sim[i] != b.Sim[i] {
			return false
		}
	}
	for i := range a.Mapping {
		x, y := a.Mapping[i], b.Mapping[i]
		if x.Key() != y.Key() || x.Score != y.Score {
			return false
		}
	}
	return true
}

func runServe(cfg runConfig, w *serveWorkload, e *env) (*report, error) {
	n := max(1, int(math.Round(w.rate*float64(cfg.seconds))))
	pairs, bodies, jobs, warm, err := w.generate(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	e.Ops, e.RatePerSec = n, w.rate

	// The library's answer for every distinct pair, the reference the served
	// results must equal.
	refs := make([]*ems.Result, len(pairs))
	for pi, p := range pairs {
		l1, l2, err := parsePair(p)
		if err != nil {
			return nil, err
		}
		if refs[pi], err = ems.Match(l1, l2); err != nil {
			return nil, fmt.Errorf("%s: reference match: %w", p.name, err)
		}
	}

	// Set-up: server.New on a fresh data dir, several times; the last
	// server serves the timed phase.
	setups := make([]float64, serveSetups)
	var srv *server.Server
	var stop func() error
	for k := range setups {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		var elapsed time.Duration
		if srv, elapsed, stop, err = startServer(cfg.scratch); err != nil {
			return nil, err
		}
		setups[k] = elapsed.Seconds()
	}
	if err := warmUp(srv, warm); err != nil {
		stop()
		return nil, err
	}
	durable := replay(srv, jobs, bodies)
	if err := stop(); err != nil {
		return nil, err
	}
	checkServed(durable, jobs, refs)

	failed := 0
	var fsum float64
	digest := sha256.New()
	for i, j := range jobs {
		if durable.errs[i] != "" {
			e.Problems = append(e.Problems, fmt.Sprintf("job %d (%s): %s", i, pairs[j.pair].name, durable.errs[i]))
			failed++
			continue
		}
		fsum += ems.Evaluate(refs[j.pair].Mapping, pairs[j.pair].truth).FMeasure
		d := sha256.Sum256(durable.results[i])
		digest.Write(d[:])
	}
	e.Digest = hex.EncodeToString(digest.Sum(nil))
	e.CPUPerWall = durable.cpu / durable.wall

	rep := &report{Attempted: n, Failed: failed}
	if !cfg.trace {
		rep.set("throughput_ops", float64(n-failed)/durable.wall, "ops/s")
		rep.set("latency_p50_s", median(durable.lat), "s")
		rep.set("latency_p90_s", percentile(durable.lat, 0.9), "s")
		rep.set("f_measure", fsum/float64(n), "ratio")
		rep.set("ok_ratio", float64(n-failed)/float64(n), "ratio")
		rep.set("alloc_mib_per_op", float64(durable.alloc)/mib/float64(n), "MiB")
		rep.set("setup_s", median(setups), "s")
		return rep, nil
	}

	// Traced replay on a fresh data dir, counting journal writes and syncs
	// through a pass-through failpoint and the bytes written from the
	// process's I/O counters.
	srv, _, stop, err = startServer(cfg.scratch)
	if err != nil {
		return nil, err
	}
	if err := warmUp(srv, warm); err != nil {
		stop()
		return nil, err
	}
	var writes, syncs atomic.Int64
	restore := journal.SetFailpoint(func(op journal.Op) error {
		switch op {
		case journal.OpWrite:
			writes.Add(1)
		case journal.OpSync:
			syncs.Add(1)
		}
		return nil
	})
	wchar0, ioOK := writtenBytes()
	traced := replay(srv, jobs, bodies)
	wchar1, _ := writtenBytes()
	restore()
	if err := stop(); err != nil {
		return nil, err
	}
	checkServed(traced, jobs, refs)

	// The same traffic without a data dir gives the in-memory latency the
	// persistence share is measured against.
	srv, _, stop, err = startServer("")
	if err != nil {
		return nil, err
	}
	if err := warmUp(srv, warm); err != nil {
		stop()
		return nil, err
	}
	memory := replay(srv, jobs, bodies)
	if err := stop(); err != nil {
		return nil, err
	}
	checkServed(memory, jobs, refs)
	for i := range jobs {
		for _, p := range []*servePass{traced, memory} {
			if p.errs[i] != "" {
				e.Problems = append(e.Problems, fmt.Sprintf("replayed job %d: %s", i, p.errs[i]))
			}
		}
	}

	fresh, hits := len(pairs), 0
	for i := range jobs {
		if traced.cacheHit[i] {
			hits++
		}
	}
	rep.set("server.submit_s", mean(traced.submit), "s")
	rep.set("server.wait_s", mean(traced.wait), "s")
	rep.set("server.run_s", mean(traced.run), "s")
	rep.set("server.result_get_s", mean(traced.get), "s")
	rep.set("server.cache_hit_ratio", float64(hits)/float64(n), "ratio")
	durP50, memP50 := median(durable.freshLatencies(jobs)), median(memory.freshLatencies(jobs))
	if durP50 > 0 {
		rep.set("server.persist_share", 1-memP50/durP50, "ratio")
	}
	// Journal counts are per computed job: repeats are never journaled.
	rep.set("journal.syncs_per_job", float64(syncs.Load())/float64(fresh), "count")
	rep.set("journal.writes_per_job", float64(writes.Load())/float64(fresh), "count")
	if ioOK {
		rep.set("journal.bytes_per_job", float64(wchar1-wchar0)/float64(fresh), "B")
	}
	rep.set("bench.gen_late_p90_s", percentile(durable.late, 0.9), "s")
	rep.set("bench.cpu_per_wall", e.CPUPerWall, "ratio")
	rep.set("bench.trace_overhead_ratio", median(traced.lat)/median(durable.lat), "ratio")

	// The library layers on the distinct pairs, decomposed as in the library
	// workloads, so the parse and engine cost behind a submission shows.
	tr := newTracer()
	var agg layerCounts
	var buf bytes.Buffer
	ccfg := core.DefaultConfig()
	ccfg.FastPath, ccfg.Tiled = true, true
	for pi, p := range pairs {
		c, err := tracedOp(tr, pi, p, ccfg, &buf)
		if err != nil {
			e.Problems = append(e.Problems, fmt.Sprintf("traced op %s: %v", p.name, err))
			continue
		}
		if want := refs[pi]; c.rounds != want.Rounds || c.evals != want.Evaluations || c.pruned != want.Pruned || c.bound != want.ErrorBound {
			e.Problems = append(e.Problems, fmt.Sprintf("traced op %s: per-direction computation disagrees with ems.Match", p.name))
		}
		agg.add(c)
	}
	for pi, p := range pairs {
		l1, l2, err := parsePair(p)
		if err != nil {
			return nil, err
		}
		ex, err := ems.Match(l1, l2, ems.WithExact())
		if err != nil {
			return nil, err
		}
		for k := range ex.Sim {
			agg.maxErr = math.Max(agg.maxErr, math.Abs(ex.Sim[k]-refs[pi].Sim[k]))
		}
	}
	self := tr.selfTimes()
	opTotal := tr.rootTotal()
	agg.report(rep, self, ccfg)
	rep.set("bench.core_share", layerShare(self, opTotal, "core"), "ratio")
	rep.set("bench.ingest_share", layerShare(self, opTotal, "eventlog", "depgraph", "label"), "ratio")
	fillPerLayer(rep)
	path := filepath.Join(cfg.scratch, fmt.Sprintf("trace-serve-durable-seed%d.json", cfg.seed))
	if err := tr.write(path, e); err != nil {
		return nil, err
	}
	return rep, nil
}
