package main

// inputs.go builds every workload's trace pairs from the seed and writes
// them to disk. Inputs come only from the simulated applications and the
// synthetic generator (internal/synth, internal/apps/lulesh,
// internal/apps/oddeven); the program under test only ever sees the
// written files. ILCS is left out: its traces depend on the Go scheduler,
// so the same seed would not give the same bytes.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"difftrace/internal/apps/lulesh"
	"difftrace/internal/apps/oddeven"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/synth"
	"difftrace/internal/trace"
)

// scale selects input sizes: full for the benchmark, tiny for its own test.
type scale int

const (
	full scale = iota
	tiny
)

// pair is one normal/faulty input of a workload.
type pair struct {
	name string
	// target is the process the fault plan (or the synthetic
	// perturbation) is placed in: the process a correct ranking puts first.
	target int
	// specs are the filter specs the workload analyzes this pair under.
	specs          []string
	normal, faulty *trace.TraceSet
}

// pairFiles is a pair written to disk, in both trace formats.
type pairFiles struct {
	name   string
	target int
	specs  []string
	text   [2]string // normal, faulty
	plot   [2]string // normal, faulty (PLOT1)
}

// perturbedProcess is the logical process the synthetic loop-nest pair
// perturbs; the seed decides which process ID it gets.
const perturbedProcess = 5

// loopPair is the synthetic loop-nest pair of BenchmarkParallel_DiffRun:
// procs × threads traces of two loops (the first nested) with the same
// per-thread noise seeds. The faulty side perturbs one process: a longer
// second loop, noisier bodies, and one truncated thread. iters scales
// every loop's iteration count. The seed permutes the process IDs, so each
// seed moves the perturbation to another process while the work the pair
// costs stays the same: the expensive part, the perturbed process's
// diffNLR, swings by tens of percent between noise draws.
func loopPair(name string, seed int64, procs, threads int, iters float64, specs []string) *pair {
	ids := rand.New(rand.NewSource(seed)).Perm(procs)
	reg := trace.NewRegistry()
	build := func(faulty bool) *trace.TraceSet {
		set := trace.NewTraceSetWith(reg)
		for p := 0; p < procs; p++ {
			for t := 0; t < threads; t++ {
				cfg := synth.Config{
					Prologue: 3, Epilogue: 2,
					Loops: []synth.LoopSpec{
						{Body: 6, Iterations: scaled(40, iters), Nested: &synth.LoopSpec{Body: 3, Iterations: 8}},
						{Body: 4, Iterations: scaled(60, iters)},
					},
					NoiseRate: 0.02, NoisePool: 24,
					Seed: int64(1000*p + t),
				}
				if faulty && p == perturbedProcess {
					cfg.Loops[1].Iterations = scaled(90, iters)
					cfg.NoiseRate = 0.10
					if t == 3%threads {
						cfg.TruncateAfter = scaled(400, iters)
					}
				}
				synth.Generate(set, trace.TID(ids[p], t), cfg)
			}
		}
		return set
	}
	return &pair{name: name, target: ids[perturbedProcess], specs: specs, normal: build(false), faulty: build(true)}
}

func scaled(n int, f float64) int {
	if v := int(float64(n) * f); v > 1 {
		return v
	}
	return 1
}

// luleshPair runs the LULESH proxy fault-free and under the skipLeapFrog
// plan. The target rank is read from the plan itself.
func luleshPair(name string, procs, threads, cycles int, specs []string) (*pair, error) {
	plan, err := faults.Named("skipLeapFrog")
	if err != nil {
		return nil, err
	}
	reg := trace.NewRegistry()
	run := func(p *faults.Plan) (*trace.TraceSet, error) {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		if _, err := lulesh.Run(lulesh.Config{Procs: procs, Threads: threads, Cycles: cycles, Plan: p, Tracer: tr}); err != nil {
			return nil, fmt.Errorf("lulesh: %w", err)
		}
		return tr.Collect(), nil
	}
	n, err := run(nil)
	if err != nil {
		return nil, err
	}
	f, err := run(plan)
	if err != nil {
		return nil, err
	}
	return &pair{name: name, target: plan.Faults[0].Process, specs: specs, normal: n, faulty: f}, nil
}

// oddEvenPair runs the odd/even sort fault-free and under the swapBug
// plan; seed draws the values being sorted.
func oddEvenPair(name string, seed int64, procs int, specs []string) (*pair, error) {
	plan, err := faults.Named("swapBug")
	if err != nil {
		return nil, err
	}
	reg := trace.NewRegistry()
	run := func(p *faults.Plan) (*trace.TraceSet, error) {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		if _, err := oddeven.Run(oddeven.Config{Procs: procs, Seed: seed, Plan: p, Tracer: tr}); err != nil {
			return nil, fmt.Errorf("oddeven: %w", err)
		}
		return tr.Collect(), nil
	}
	n, err := run(nil)
	if err != nil {
		return nil, err
	}
	f, err := run(plan)
	if err != nil {
		return nil, err
	}
	return &pair{name: name, target: plan.Faults[0].Process, specs: specs, normal: n, faulty: f}, nil
}

// encoded is a pair's four file images: text and PLOT1, normal and faulty.
type encoded struct {
	text, plot [2][]byte
}

// encode renders both sides in both formats. The PLOT1 image is written
// from the text image read back into a fresh registry: the simulated
// applications intern function names in the order their goroutines first
// call them, which the Go scheduler decides, and PLOT1 records those IDs,
// while the text format records names only.
func encode(p *pair) (*encoded, error) {
	var e encoded
	for i, set := range []*trace.TraceSet{p.normal, p.faulty} {
		var t, b bytes.Buffer
		if err := trace.WriteSetText(&t, set); err != nil {
			return nil, fmt.Errorf("%s: write text: %w", p.name, err)
		}
		canon, err := trace.ReadSetText(bytes.NewReader(t.Bytes()), trace.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("%s: read back text: %w", p.name, err)
		}
		if err := parlot.WriteSetBinary(&b, canon); err != nil {
			return nil, fmt.Errorf("%s: write PLOT1: %w", p.name, err)
		}
		e.text[i], e.plot[i] = t.Bytes(), b.Bytes()
	}
	return &e, nil
}

func (e *encoded) digest() [32]byte {
	h := sha256.New()
	for _, b := range [][]byte{e.text[0], e.text[1], e.plot[0], e.plot[1]} {
		h.Write(b)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// writeInputs generates the workload's pairs twice, fails unless both
// generations encode to the same bytes, and writes the first into dir.
func writeInputs(gen func() ([]*pair, error), dir string) ([]*pairFiles, error) {
	var images [2][]*encoded
	var pairs []*pair
	for round := range images {
		ps, err := gen()
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			e, err := encode(p)
			if err != nil {
				return nil, err
			}
			images[round] = append(images[round], e)
		}
		if round == 0 {
			pairs = ps
		}
	}
	var out []*pairFiles
	for i, p := range pairs {
		if images[0][i].digest() != images[1][i].digest() {
			return nil, fmt.Errorf("input %s: two generations from the same seed differ", p.name)
		}
		pf := &pairFiles{name: p.name, target: p.target, specs: p.specs}
		for side, label := range []string{"normal", "faulty"} {
			pf.text[side] = filepath.Join(dir, p.name+"."+label+".trace")
			pf.plot[side] = filepath.Join(dir, p.name+"."+label+".plot")
			if err := os.WriteFile(pf.text[side], images[0][i].text[side], 0o644); err != nil {
				return nil, err
			}
			if err := os.WriteFile(pf.plot[side], images[0][i].plot[side], 0o644); err != nil {
				return nil, err
			}
		}
		out = append(out, pf)
	}
	return out, nil
}
