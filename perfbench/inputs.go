package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/ems"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/matching"
	"repro/internal/procgen"
)

// pairInput is one generated log pair in the serialized form the program
// receives: log 1 as CSV, log 2 as CSV or XES.
type pairInput struct {
	name  string
	rung  int // index into the workload's rungs
	csv1  []byte
	log2  []byte
	xes2  bool
	truth matching.Mapping
}

// rung is one size class of a library workload.
type rung struct {
	label      string
	activities int
	traces     int
	// xesTraces > 0 sends log 2 as XES, cut to its first xesTraces traces.
	xesTraces      int
	opaqueFraction float64
}

// options are the generator options of the rung's pairs.
func (rg rung) options() dataset.Options {
	return dataset.Options{
		Events:         rg.activities,
		Traces:         rg.traces,
		OpaqueFraction: rg.opaqueFraction,
		FrequencySkew:  0.5,
	}
}

// countingSource counts the draws taken from src.
type countingSource struct {
	src rand.Source
	n   int
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// modelSource serves the first left draws from model, then switches to rest.
type modelSource struct {
	model, rest rand.Source
	left        int
}

func (m *modelSource) Int63() int64 {
	if m.left > 0 {
		m.left--
		return m.model.Int63()
	}
	return m.rest.Int63()
}

func (m *modelSource) Seed(int64) {}

// generateOnModel runs dataset.GeneratePair on a fixed process model and a
// seeded recording. GeneratePair draws its process model first, with
// procgen.DefaultOptions; replaying the draws procgen.Generate takes for
// modelSeed and then continuing from runSeed keeps the model (the process
// being logged) fixed while the traces, renaming, dislocation and branch
// skew come from the run's seed. Fixing the models keeps the cost of a run
// steady across seeds: at 40 activities the op time of freshly drawn models
// spreads over 10x with graph density.
func generateOnModel(modelSeed, runSeed int64, name string, o dataset.Options) (*dataset.Pair, error) {
	count := &countingSource{src: rand.NewSource(modelSeed)}
	spec, err := procgen.Generate(rand.New(count), procgen.DefaultOptions(o.Events))
	if err != nil {
		return nil, err
	}
	src := &modelSource{model: rand.NewSource(modelSeed), rest: rand.NewSource(runSeed), left: count.n}
	p, err := dataset.GeneratePair(rand.New(src), name, o)
	if err != nil {
		return nil, err
	}
	// Log 1 is never renamed, so its alphabet must come from the model.
	known := make(map[string]bool, len(spec.Activities))
	for _, a := range spec.Activities {
		known[a] = true
	}
	for _, a := range p.Log1.Alphabet() {
		if !known[a] {
			return nil, fmt.Errorf("%s: log 1 event %q is not in the fixed model; dataset.GeneratePair no longer draws its model first", name, a)
		}
	}
	return p, nil
}

// encodePair serializes a generated pair into the program's input form.
func encodePair(p *dataset.Pair, rungIdx, xesTraces int) (*pairInput, error) {
	in := &pairInput{name: p.Name, rung: rungIdx, truth: p.Truth}
	var b1, b2 bytes.Buffer
	if err := ems.WriteCSV(&b1, p.Log1); err != nil {
		return nil, err
	}
	in.csv1 = b1.Bytes()
	if xesTraces > 0 {
		l2 := eventlog.New(p.Log2.Name)
		for i := 0; i < xesTraces && i < p.Log2.Len(); i++ {
			l2.Append(p.Log2.Traces[i])
		}
		if err := ems.WriteXES(&b2, l2); err != nil {
			return nil, err
		}
		in.xes2 = true
	} else if err := ems.WriteCSV(&b2, p.Log2); err != nil {
		return nil, err
	}
	in.log2 = b2.Bytes()
	return in, nil
}

// parsePair parses both logs as the program's callers would.
func parsePair(p *pairInput) (l1, l2 *ems.Log, err error) {
	if l1, err = ems.ReadCSV(bytes.NewReader(p.csv1), p.name+"/1"); err != nil {
		return nil, nil, err
	}
	if p.xes2 {
		l2, err = ems.ReadXES(bytes.NewReader(p.log2))
	} else {
		l2, err = ems.ReadCSV(bytes.NewReader(p.log2), p.name+"/2")
	}
	if err != nil {
		return nil, nil, err
	}
	return l1, l2, nil
}

// dislocation alternates the two dislocation styles of the paper's DS-B
// testbed by pair index: an extra unshared event, or a missing one, at the
// front of log 2's traces.
func dislocation(o *dataset.Options, i int) {
	if i%2 == 0 {
		o.ExtraFront = 1
	} else {
		o.DislocateFront = 1
	}
}
