package main

// workloads.go defines the three workloads. Each run of any workload has
// the same shape — set-up, an analysis phase on the command-line path, a
// service phase against difftraced — so every end-to-end metric is
// measured on every workload; the workloads differ in their inputs and in
// which layers those inputs make expensive.

import (
	"bytes"
	"fmt"
	"strings"

	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

type workload struct {
	name string
	// analysisShare is the share of --seconds the analysis phase gets;
	// the service phase gets the rest.
	analysisShare float64
	// clients is the service phase's closed-loop client count.
	clients int
	// pairs builds the input pairs from the seed.
	pairs func(seed int64, sc scale) ([]*pair, error)
	// prepare computes what the checks compare against, after set-up and
	// outside every timed region (optional).
	prepare func(b *bench) error
	// iterate is one analysis iteration: trace bytes on disk to rendered
	// output.
	iterate func(b *bench) (*iteration, error)
	// checkIteration checks one iteration's outputs; checkRun runs the
	// costlier checks once per run (optional).
	checkIteration func(b *bench, it *iteration, n int) error
	checkRun       func(b *bench, it *iteration) error
	// families are the service phase's request families.
	families func(b *bench) []*family
}

var workloads = []*workload{loopsStream, sweepLULESH, serviceMix}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// ---- loops-stream --------------------------------------------------------

const (
	loopSpec = "00.0K10" // keep every event: the loop nests carry no MPI calls
	loopAttr = "sing.actual"
)

// loopsStream is the NLR and PLOT1-decode workload: what
// `difftrace -stream -report -find-divergence` does on the synthetic
// loop-nest pair, where NLR summarization and the report's diffNLR of the
// perturbed process take most of the time.
var loopsStream = &workload{
	name:          "loops-stream",
	analysisShare: 0.6,
	// One client, as on sweep-lulesh: the analysis workloads' service
	// phases time the service path on their own input without jobs
	// contending (service-mix is the concurrent one). Here it also keeps
	// the footprint down: rendering this pair's report holds ~1.1 GiB
	// live (the diffNLR of the perturbed process).
	clients: 1,
	pairs: func(seed int64, sc scale) ([]*pair, error) {
		if sc == tiny {
			return []*pair{loopPair("loops", seed, 6, 2, 0.25, []string{loopSpec})}, nil
		}
		return []*pair{loopPair("loops", seed, 8, 11, 1, []string{loopSpec})}, nil
	},
	prepare: func(b *bench) error {
		raw, err := rawLoopStreams(b.ctx, b.files[0], loopSpec)
		b.loopsRaw = raw
		return err
	},
	iterate: func(b *bench) (*iteration, error) {
		pf := b.files[0]
		cfg, err := b.config(loopSpec, loopAttr, true)
		if err != nil {
			return nil, err
		}
		return streamIteration(b, pf, cfg, true)
	},
	checkIteration: func(b *bench, it *iteration, _ int) error {
		rep := it.reports[0]
		if err := checkExpandedLengths(rep, b.loopsRaw); err != nil {
			return err
		}
		if err := checkLoopSuspects(rep, b.files[0].target, 6); err != nil {
			return err
		}
		return checkDivergence(it.div, b.loopsRaw)
	},
	checkRun: func(b *bench, it *iteration) error {
		cfg, err := b.config(loopSpec, loopAttr, false)
		if err != nil {
			return err
		}
		batch, err := streamIteration(b, b.files[0], cfg, false)
		if err != nil {
			return err
		}
		return checkSameBytes("streamed report", it.out, "batch report", batch.out)
	},
	families: func(b *bench) []*family {
		return familiesOf(b.files[0], true, []string{loopAttr})
	},
}

// streamIteration reads the pair's PLOT1 files, diffs them and renders the
// report plus the divergence explorer. stream=false materializes the
// stream sets first and runs the batch pipeline on them instead: the
// reference the streamed output must match byte for byte.
func streamIteration(b *bench, pf *pairFiles, cfg core.Config, stream bool) (*iteration, error) {
	reg := trace.NewRegistry()
	var sets [2]fmt.Stringer
	var rep *core.Report
	sn, err := readStream(b.ctx, pf.plot[0], reg)
	if err != nil {
		return nil, err
	}
	sf, err := readStream(b.ctx, pf.plot[1], reg)
	if err != nil {
		return nil, err
	}
	if stream {
		sets = [2]fmt.Stringer{sn, sf}
		err = b.span("iter/core.DiffRunStream", func() (err error) {
			rep, err = core.DiffRunStreamContext(b.ctx, sn, sf, cfg)
			return err
		})
	} else {
		var n, f *trace.TraceSet
		if n, err = sn.Materialize(b.ctx); err != nil {
			return nil, err
		}
		if f, err = sf.Materialize(b.ctx); err != nil {
			return nil, err
		}
		sets = [2]fmt.Stringer{n, f}
		rep, err = core.DiffRunContext(b.ctx, n, f, cfg)
	}
	if err != nil {
		return nil, err
	}
	var div *core.DivergenceReport
	if err := b.span("iter/core.FindDivergence", func() (err error) {
		div, err = rep.FindDivergenceContext(b.ctx)
		return err
	}); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = b.span("iter/core.WriteReport", func() error {
		fmt.Fprintf(&out, "normal: %s   faulty: %s\n", sets[0], sets[1])
		if err := rep.WriteReport(&out, core.RenderOptions{TopK: 6}); err != nil {
			return err
		}
		fmt.Fprintln(&out)
		return div.Render(&out)
	})
	if err != nil {
		return nil, err
	}
	return &iteration{
		out:     out.Bytes(),
		reports: []*core.Report{rep},
		keys:    []refKey{{pf.name, loopSpec, cfg.Attr.String()}},
		div:     div,
	}, nil
}

// ---- sweep-lulesh --------------------------------------------------------

// luleshSpecs are the sweep's filter specs: MPI- and OpenMP-filtered, as
// in the paper's LULESH table, so every context (and the lattice) stays
// small.
var luleshSpecs = []string{"11.mpiall.0K10", "11.mpicol.0K10", "11.mpisr.0K10", "11.mpi.omp.0K10"}

// sweepLULESH is the analysis-dominated workload and the paper's main
// product: a ranking table over filter specs × the six attribute
// configurations, then one lattice-building run of the default spec.
var sweepLULESH = &workload{
	name:          "sweep-lulesh",
	analysisShare: 0.6,
	clients:       1,
	pairs: func(_ int64, sc scale) ([]*pair, error) {
		if sc == tiny {
			p, err := luleshPair("lulesh", 4, 2, 1, luleshSpecs)
			return []*pair{p}, err
		}
		p, err := luleshPair("lulesh", 64, 4, 2, luleshSpecs)
		return []*pair{p}, err
	},
	iterate: func(b *bench) (*iteration, error) {
		it := &iteration{}
		var out bytes.Buffer
		ns, fs, err := sweepPair(b, b.files[0], it, &out)
		if err != nil {
			return nil, err
		}
		// The -lattice run: the default spec, lattices built.
		cfg := core.DefaultConfig()
		cfg.BuildLattices = true
		cfg.Obs = b.obs
		var rep *core.Report
		if err := b.span("iter/core.DiffRun", func() (err error) {
			rep, err = core.DiffRunContext(b.ctx, ns, fs, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		fmt.Fprintln(&out, "\nconcept lattice (faulty run, threads):")
		out.WriteString(rep.Threads.Faulty.Lattice.Render())
		it.out = out.Bytes()
		it.reports = append(it.reports, rep)
		it.keys = append(it.keys, refKey{b.files[0].name, cfg.Filter.String(), cfg.Attr.String()})
		it.lattice = rep
		return it, nil
	},
	checkIteration: func(b *bench, it *iteration, n int) error {
		return checkTables(b, it, n)
	},
	families: func(b *bench) []*family {
		return familiesOf(b.files[0], false, allAttrs())
	},
}

// table is one ranking table and its rendering.
type table struct {
	pair *pairFiles
	tbl  *rank.Table
	text string
}

// sweepPair reads a pair's text files and sweeps every spec of the pair ×
// the six attribute configurations, appending the rendered table to out
// and the table and its reports to it. It returns the loaded sets.
func sweepPair(b *bench, pf *pairFiles, it *iteration, out *bytes.Buffer) (*trace.TraceSet, *trace.TraceSet, error) {
	reg := trace.NewRegistry()
	var ns, fs *trace.TraceSet
	err := b.span("iter/trace.ReadSetText", func() (err error) {
		if ns, err = readText(b.ctx, pf.text[0], reg); err != nil {
			return err
		}
		fs, err = readText(b.ctx, pf.text[1], reg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var tbl *rank.Table
	if err := b.span("iter/rank.Sweep", func() (err error) {
		tbl, err = rank.SweepContext(b.ctx, ns, fs, rank.Request{Specs: pf.specs, Linkage: cluster.Ward, Obs: b.obs})
		return err
	}); err != nil {
		return nil, nil, err
	}
	text := tbl.Render()
	out.WriteString(text)
	it.tables = append(it.tables, &table{pair: pf, tbl: tbl, text: text})
	for _, row := range tbl.Rows {
		it.reports = append(it.reports, row.Report)
		it.keys = append(it.keys, refKey{pf.name, row.Spec, row.Attr.String()})
	}
	return ns, fs, nil
}

// ---- service-mix ---------------------------------------------------------

// serviceMix is the difftraced job engine under a closed loop of clients
// sending a mix of small requests, most of them repeats. Its analysis
// phase sweeps every pair of the mix in process: the command-line cost of
// the same requests, and the reference the service's reports are checked
// against.
var serviceMix = &workload{
	name:          "service-mix",
	analysisShare: 0.35,
	// One client per CPU of the 2-CPU reference host.
	clients: 2,
	pairs: func(seed int64, sc scale) ([]*pair, error) {
		mpi := []string{"11.mpiall.0K10", "11.mpisr.0K10"}
		var ps []*pair
		ranks := []int{8, 16, 32}
		luleshProcs, luleshThreads, loopProcs, loopThreads, loopIters := 8, 4, 6, 4, 0.5
		if sc == tiny {
			ranks = []int{8}
			luleshProcs, luleshThreads, loopProcs, loopThreads, loopIters = 4, 2, 6, 2, 0.25
		}
		for _, n := range ranks {
			p, err := oddEvenPair(fmt.Sprintf("oddeven%d", n), seed, n, mpi)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		p, err := luleshPair("lulesh", luleshProcs, luleshThreads, 1, []string{"11.mpiall.0K10", "11.mpi.omp.0K10"})
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		ps = append(ps, loopPair("loops", seed, loopProcs, loopThreads, loopIters, []string{loopSpec, "00.0K5"}))
		return ps, nil
	},
	iterate: func(b *bench) (*iteration, error) {
		it := &iteration{}
		var out bytes.Buffer
		for _, pf := range b.files {
			if _, _, err := sweepPair(b, pf, it, &out); err != nil {
				return nil, err
			}
		}
		it.out = out.Bytes()
		// The fca replay reads the largest odd/even pair's MPI context.
		for i, k := range it.keys {
			if strings.HasPrefix(k.pair, "oddeven") && k.spec == "11.mpiall.0K10" && k.attr == "sing.noFreq" {
				it.lattice = it.reports[i]
			}
		}
		return it, nil
	},
	checkIteration: func(b *bench, it *iteration, n int) error {
		return checkTables(b, it, n)
	},
	families: func(b *bench) []*family {
		var fams []*family
		for _, pf := range b.files {
			fams = append(fams, familiesOf(pf, false, allAttrs())...)
			if !strings.HasPrefix(pf.name, "oddeven") {
				fams = append(fams, familiesOf(pf, true, allAttrs())...)
			}
		}
		return fams
	},
}
