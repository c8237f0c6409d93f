package main

// bench.go holds the run every workload shares: repeated set-up,
// the timed analysis phase, the service phase, the correctness checks,
// and the assembly of the printed result.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
)

const (
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
	// minIterations is the fewest analysis iterations a run makes, however
	// short its analysis phase.
	minIterations = 3
	// memoryIterations are run after the timed ones to measure peak heap.
	memoryIterations = 1
	// memoryGCPercent is the GC target during the memory iterations: a GC
	// at every 10% of heap growth marks a live heap within 10% of the
	// true peak, where at the default 100% the last GC before the peak can
	// come at half of it.
	memoryGCPercent = 10
	mib             = 1 << 20
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch files go under .bench_build/
	scale    scale
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// refKey names one analysis configuration of one input pair. Reports with
// equal keys rank the same suspects whatever their linkage: suspects come
// from JSM_D, which the linkage method does not enter.
type refKey struct {
	pair, spec, attr string
}

// iteration is what one analysis iteration produced.
type iteration struct {
	out     []byte         // the rendered output
	reports []*core.Report // every report the iteration built
	keys    []refKey       // the configuration of each report
	tables  []*table       // sweep workloads: one ranking table per pair
	div     *core.DivergenceReport
	lattice *core.Report // the report the fca replay reads, if the iteration built one
}

// bench is one run's state.
type bench struct {
	opts  options
	w     *workload
	ctx   context.Context
	dir   string
	files []*pairFiles
	srv   *server

	// obs collects the traced run's spans and counters (nil when
	// untraced, which switches all instrumentation off).
	obs *obs.Run

	refs     map[refKey]*core.Report
	loopsRaw map[string]rawObject // loops-stream: raw filtered streams per object

	attempted, failed int
	problems          []string
}

// fail records a failed correctness check; the run then reports
// correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func run(ctx context.Context, o options) (*result, error) {
	w := workloadNamed(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{opts: o, w: w, ctx: ctx, dir: dir, refs: map[refKey]*core.Report{}}
	if o.trace {
		b.obs = obs.NewRun("perfbench")
	}
	defer func() {
		if b.srv != nil {
			b.srv.stop()
		}
	}()

	var setupTimes []float64
	for i := 0; i < setups; i++ {
		d, err := b.setup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), i == setups-1)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	logf("set-up: %d × median %.2fs", setups, median(setupTimes))
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, fmt.Errorf("prepare checks: %w", err)
		}
	}

	analysis := time.Duration(o.seconds * w.analysisShare * float64(time.Second))
	ph, err := b.analysisPhase(analysis)
	if err != nil {
		return nil, err
	}
	logf("analysis phase: %d iterations, median %.3fs (%s)", len(ph.times), median(ph.times), seconds(ph.times))
	if w.checkRun != nil {
		if err := w.checkRun(b, ph.last); err != nil {
			b.fail("%v", err)
		}
		logf("run checks done")
	}

	var layers map[string]metric
	if o.trace {
		if layers, err = b.replay(ph); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}

	sp, err := b.servicePhase(time.Duration(o.seconds*float64(time.Second)) - analysis)
	if err != nil {
		return nil, err
	}
	logf("service phase: %d submissions in %.2fs", len(sp.subs), sp.elapsed.Seconds())
	b.checkService(sp)
	logf("service checks done; peak resident set %s", peakRSS())

	res := &result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed}
	if o.trace {
		res.Metrics = layers
		for k, v := range b.serviceLayers(sp) {
			res.Metrics[k] = v
		}
		writeStages(b.obs)
		return res, nil
	}
	res.Metrics = map[string]metric{
		"setup_s":       {median(setupTimes), "s"},
		"analysis_s":    {median(ph.times), "s"},
		"peak_heap_mib": {median(ph.peaks) / mib, "MiB"},
		"alloc_mib":     {median(ph.allocs) / mib, "MiB"},
		"job_cold_s":    {sp.cold, "s"},
		"job_hit_s":     {sp.hit, "s"},
		"jobs_per_s":    {float64(sp.completed) / sp.elapsed.Seconds(), "jobs/s"},
	}
	return res, nil
}

// setup is one complete set-up: the inputs generated twice and checked,
// written to dir, and a fresh service booted on a fresh store. Only the
// last set-up's files and service are kept for the run.
func (b *bench) setup(dir string, keep bool) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	files, err := writeInputs(func() ([]*pair, error) { return b.w.pairs(b.opts.seed, b.opts.scale) }, dir)
	if err != nil {
		return 0, err
	}
	srv, err := boot(b.ctx, filepath.Join(dir, "store"), b.opts.trace)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if !keep {
		srv.stop()
		return d, os.RemoveAll(dir)
	}
	b.files, b.srv = files, srv
	return d, nil
}

// phase holds the analysis phase's samples.
type phase struct {
	times, peaks, allocs []float64
	last                 *iteration
	traced               int // iterations run with tracing on
}

// analysisPhase runs analysis iterations until d has passed (and at least
// minIterations). Each iteration starts from a collected heap; its wall
// time and the bytes it allocated are recorded, then its checks run
// outside the timed region. Untraced runs then measure the peak live heap
// an iteration adds, in memoryIterations more.
func (b *bench) analysisPhase(d time.Duration) (*phase, error) {
	ph := &phase{}
	deadline := time.Now().Add(d)
	for i := 0; i < minIterations || time.Now().Before(deadline); i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		it, err := b.w.iterate(b)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d failed: %v\n", i, err)
			continue
		}
		ph.times = append(ph.times, elapsed.Seconds())
		ph.allocs = append(ph.allocs, float64(after.TotalAlloc-before.TotalAlloc))
		if b.obs != nil {
			ph.traced++
		}
		if err := b.w.checkIteration(b, it, i); err != nil {
			b.fail("iteration %d: %v", i, err)
		}
		for j, k := range it.keys {
			if _, ok := b.refs[k]; !ok {
				b.refs[k] = it.reports[j]
			}
		}
		ph.last = it
	}
	if ph.last == nil {
		return nil, errors.New("every analysis iteration failed")
	}
	if b.obs != nil {
		return ph, nil
	}
	defer debug.SetGCPercent(debug.SetGCPercent(memoryGCPercent))
	for i := 0; i < memoryIterations; i++ {
		runtime.GC()
		heap := startLiveHeapSampler()
		_, err := b.w.iterate(b)
		peak, baseline := heap.stop()
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: memory iteration %d failed: %v\n", i, err)
			continue
		}
		ph.peaks = append(ph.peaks, float64(peak-baseline))
	}
	return ph, nil
}

// liveHeapSampler tracks the largest live heap the garbage collector
// marks while it runs (runtime/metrics /gc/heap/live:bytes, which changes
// only at the end of each GC cycle, so a millisecond poll sees every
// cycle of a multi-millisecond iteration without stopping the world).
type liveHeapSampler struct {
	stopCh, done chan struct{}
	baseline     uint64
	peak         uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startLiveHeapSampler() *liveHeapSampler {
	s := &liveHeapSampler{stopCh: make(chan struct{}), done: make(chan struct{}), baseline: readLiveHeap()}
	s.peak = s.baseline
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				if v := readLiveHeap(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak and the baseline it started from.
func (s *liveHeapSampler) stop() (peak, baseline uint64) {
	close(s.stopCh)
	<-s.done
	if v := readLiveHeap(); v > s.peak {
		s.peak = v
	}
	return s.peak, s.baseline
}

// config is the pipeline configuration of one (spec, attr) analysis,
// ward linkage, as the CLI builds it. Checks pass traced=false so their
// own pipeline runs stay out of the traced run's spans.
func (b *bench) config(spec, attrSpec string, traced bool) (core.Config, error) {
	flt, err := filter.ParseSpec(spec)
	if err != nil {
		return core.Config{}, err
	}
	ac, err := attr.ParseConfig(attrSpec)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Filter: flt, Attr: ac, Linkage: cluster.Ward}
	if traced {
		cfg.Obs = b.obs
	}
	return cfg, nil
}

// reference returns the in-process report of one configuration of one
// pair, as the analysis phase built it.
func (b *bench) reference(k refKey) (*core.Report, error) {
	rep, ok := b.refs[k]
	if !ok {
		return nil, fmt.Errorf("the analysis phase built no report of %s under %s/%s", k.pair, k.spec, k.attr)
	}
	return rep, nil
}

// span wraps one public call of the program in a span of the traced run.
func (b *bench) span(name string, fn func() error) error {
	_, err := b.timed(name, fn)
	return err
}

// timed runs fn under a span of the traced run and returns its wall time.
func (b *bench) timed(name string, fn func() error) (time.Duration, error) {
	sp := b.obs.StartSpan(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.End()
	return d, err
}

// logf reports the run's progress on stderr, with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs  %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

var started = time.Now()

// seconds renders samples for the progress log.
func seconds(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(parts, " ")
}

// peakRSS reads the process's peak resident set size (Linux only).
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			return strings.Join(strings.Fields(l)[1:], " ")
		}
	}
	return "unknown"
}

// writeStages prints the traced run's stage table to stderr for a reader
// who wants more than the per-layer summary.
func writeStages(r *obs.Run) {
	m := r.Manifest()
	if m == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: traced stages (path, count, total ms):")
	for _, st := range m.Stages {
		fmt.Fprintf(os.Stderr, "  %-60s %6d %10.1f\n", st.Path, st.Count, float64(st.WallNs)/1e6)
	}
}
