package main

// layers.go gives the traced run's per-layer metrics. Some come from the
// spans and counters the program already emits (core, rank, nlr) into the
// obs.Run the traced iterations attach; the rest come from replays: each
// layer's public calls made again, under the benchmark's own timers and
// spans, on the last iteration's own inputs and intermediate results.
// Per-iteration figures are divided by the number of traced iterations, so
// a layer's figure is comparable with analysis_s.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/bscore"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/rank"
	"difftrace/internal/store"
	"difftrace/internal/trace"
)

// storeProbes caps the store probe's Put/Get pairs.
const storeProbes = 64

func (b *bench) replay(ph *phase) (map[string]metric, error) {
	m := map[string]metric{}
	it := ph.last
	iters := float64(ph.traced)

	// Program-emitted spans and counters of the traced iterations, read
	// before the replays below add their own.
	man := b.obs.Manifest()
	stageSum := func(match func(string) bool) (float64, int64) {
		var ns, n int64
		for _, st := range man.Stages {
			if match(st.Path) {
				ns += st.WallNs
				n += st.Count
			}
		}
		return float64(ns) / 1e9, n
	}
	filterS, _ := stageSum(func(p string) bool { return p == "diffrun/filter" })
	sumS, _ := stageSum(func(p string) bool { return p == "summarize" })
	attrS, _ := stageSum(func(p string) bool { return strings.HasPrefix(p, "analyze/") && strings.HasSuffix(p, "/attr") })
	m["filter.apply_s"] = metric{filterS / iters, "s"}
	m["nlr.summarize_s"] = metric{sumS / iters, "s"}
	m["attr.extract_s"] = metric{attrS / iters, "s"}
	m["nlr.rounds"] = metric{float64(man.Counters["nlr.rounds"]) / iters, "count"}
	m["nlr.table_bodies"] = metric{float64(man.Counters["nlr.table.bodies"]) / iters, "count"}
	for _, p := range man.Pool {
		if p.Site == "core.summarize" && p.WorkerWallNs > 0 {
			m["core.pool_busy_ratio"] = metric{float64(p.BusyNs) / float64(p.WorkerWallNs), "ratio"}
		}
	}
	m["traced.analysis_s"] = metric{median(ph.times), "s"}

	// Readers: every text file, then every PLOT1 file, once; then one
	// full SymbolReader pass over every compressed trace.
	sets := map[string][2]*trace.TraceSet{}
	var readDur time.Duration
	var readBytes int64
	var openDur, decodeDur time.Duration
	var events int64
	for _, pf := range b.files {
		reg := trace.NewRegistry()
		var ts [2]*trace.TraceSet
		for side, path := range pf.text {
			d, err := b.timed("replay/trace.ReadSetText", func() (err error) {
				ts[side], err = readText(b.ctx, path, reg)
				return err
			})
			if err != nil {
				return nil, err
			}
			readDur += d
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			readBytes += fi.Size()
		}
		sets[pf.name] = ts
		sreg := trace.NewRegistry()
		for _, path := range pf.plot {
			var st *parlot.StreamSet
			d, err := b.timed("replay/parlot.ReadStreamSet", func() (err error) {
				st, err = readStream(b.ctx, path, sreg)
				return err
			})
			if err != nil {
				return nil, err
			}
			openDur += d
			d, _ = b.timed("replay/parlot.SymbolReader", func() error {
				for _, id := range st.IDs() {
					r := st.Get(id).Reader()
					for {
						if _, _, ok := r.Next(); !ok {
							break
						}
						events++
					}
				}
				return nil
			})
			decodeDur += d
		}
	}
	m["trace.read_s"] = metric{readDur.Seconds(), "s"}
	m["trace.read_mib_per_s"] = metric{float64(readBytes) / mib / readDur.Seconds(), "MiB/s"}
	m["parlot.open_s"] = metric{openDur.Seconds(), "s"}
	m["parlot.decode_events_per_s"] = metric{float64(events) / decodeDur.Seconds(), "events/s"}

	// The NLR kernel alone: sequential nlr.Summarize over every object's
	// filtered tokens, once per (pair, spec) the iteration analyzed.
	kernel, kernelEvents, err := b.replayNLR(it, sets)
	if err != nil {
		return nil, err
	}
	m["nlr.kernel_ns_per_event"] = metric{float64(kernel.Nanoseconds()) / float64(kernelEvents), "ns/event"}

	// Analysis kernels on every report of the iteration.
	var jsm, diff, link, bs, div, dnlr, render time.Duration
	var payloads [][]byte
	workers := runtime.GOMAXPROCS(0)
	for _, rep := range it.reports {
		for _, lv := range []*core.Level{rep.Threads, rep.Processes} {
			for _, a := range []*core.Analysis{lv.Normal, lv.Faulty} {
				d, _ := b.timed("replay/jaccard.NewParallel", func() error { jaccard.NewParallel(a.Attrs, workers); return nil })
				jsm += d
				d, err := b.timed("replay/cluster.Build", func() error {
					_, err := cluster.Build(a.JSM.Distance(), rep.Cfg.Linkage)
					return err
				})
				if err != nil {
					return nil, err
				}
				link += d
			}
			d, err := b.timed("replay/jaccard.Diff", func() error {
				_, err := jaccard.Diff(lv.Faulty.JSM, lv.Normal.JSM)
				return err
			})
			if err != nil {
				return nil, err
			}
			diff += d
			if d, err = b.timed("replay/bscore.BScore", func() error {
				_, err := bscore.BScore(lv.Normal.Linkage, lv.Faulty.Linkage)
				return err
			}); err != nil {
				return nil, err
			}
			bs += d
			for _, name := range lv.TopSuspects(3, 0) {
				d, err := b.timed("replay/core.DiffNLR", func() error {
					_, err := rep.DiffNLR(lv, name)
					return err
				})
				if err != nil {
					return nil, err
				}
				dnlr += d
			}
		}
		d, err := b.timed("replay/core.FindDivergence", func() error {
			_, err := rep.FindDivergenceContext(b.ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		div += d
		var out bytes.Buffer
		if d, err = b.timed("replay/core.WriteReport", func() error {
			return rep.WriteReport(&out, core.RenderOptions{TopK: reportTop})
		}); err != nil {
			return nil, err
		}
		render += d
		payloads = append(payloads, out.Bytes())
	}
	m["jaccard.jsm_s"] = metric{jsm.Seconds(), "s"}
	m["jaccard.diff_s"] = metric{diff.Seconds(), "s"}
	m["cluster.linkage_s"] = metric{link.Seconds(), "s"}
	m["bscore.bscore_s"] = metric{bs.Seconds(), "s"}
	m["diffnlr.divergence_s"] = metric{div.Seconds(), "s"}
	m["diffnlr.diffnlr_s"] = metric{dnlr.Seconds(), "s"}
	m["core.render_s"] = metric{render.Seconds(), "s"}

	latDur, concepts, err := b.replayLattice(it, sets)
	if err != nil {
		return nil, err
	}
	m["fca.lattice_s"] = metric{latDur.Seconds(), "s"}
	m["fca.concepts"] = metric{float64(concepts), "count"}

	combo, err := b.comboSeconds(man, it, sets)
	if err != nil {
		return nil, err
	}
	m["rank.combo_s"] = metric{combo, "s"}

	put, get, err := b.replayStore(payloads)
	if err != nil {
		return nil, err
	}
	m["store.put_s"] = metric{put, "s"}
	m["store.get_s"] = metric{get, "s"}
	return m, nil
}

// replayNLR summarizes every object's filtered tokens sequentially with
// nlr.Summarize, one loop table per (pair, spec), timing only the kernel.
func (b *bench) replayNLR(it *iteration, sets map[string][2]*trace.TraceSet) (time.Duration, int64, error) {
	var total time.Duration
	var events int64
	done := map[[2]string]bool{}
	for _, k := range it.keys {
		if done[[2]string{k.pair, k.spec}] {
			continue
		}
		done[[2]string{k.pair, k.spec}] = true
		flt, err := filter.ParseSpec(k.spec)
		if err != nil {
			return 0, 0, err
		}
		table := nlr.NewTable()
		for _, set := range sets[k.pair] {
			fs := flt.ApplySet(set)
			var objs []*trace.Trace
			for _, id := range fs.IDs() {
				objs = append(objs, fs.Traces[id])
			}
			for _, p := range fs.Processes() {
				objs = append(objs, fs.ProcessTrace(p))
			}
			for _, tr := range objs {
				toks := make([]string, 0, tr.Len())
				for _, e := range tr.Events {
					name := fs.Registry.Name(e.Func)
					if e.Kind == trace.Exit {
						name = "ret:" + name
					}
					toks = append(toks, name)
				}
				d, _ := b.timed("replay/nlr.Summarize", func() error { nlr.Summarize(toks, flt.K, table); return nil })
				total += d
				events += int64(len(toks))
			}
		}
	}
	if events == 0 {
		return 0, 0, fmt.Errorf("NLR replay saw no events")
	}
	return total, events, nil
}

// loopLatticeSpec filters the loop-nest pair down to its second loop for
// the lattice replay: the unfiltered noisy context grows to thousands of
// concepts, and the lattice has no concept budget yet.
const loopLatticeSpec, loopLatticePattern = "11.cust.0K10", "^loop1_"

// replayLattice builds the Godin lattice over the faulty run's
// thread-level attribute sets of a filtered report: the iteration's
// lattice report where it built one, otherwise (loop nests) a report of
// the pair filtered to one loop.
func (b *bench) replayLattice(it *iteration, sets map[string][2]*trace.TraceSet) (time.Duration, int, error) {
	rep := it.lattice
	if rep == nil {
		flt, err := filter.ParseSpec(loopLatticeSpec, loopLatticePattern)
		if err != nil {
			return 0, 0, err
		}
		cfg := core.DefaultConfig()
		cfg.Filter = flt
		ts := sets[it.keys[0].pair]
		if rep, err = core.DiffRunContext(b.ctx, ts[0], ts[1], cfg); err != nil {
			return 0, 0, err
		}
	}
	attrs := rep.Threads.Faulty.Attrs
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return jaccard.LessNatural(names[i], names[j]) })
	if len(names) == 0 {
		return 0, 0, fmt.Errorf("lattice replay: no faulty thread objects")
	}
	var l *fca.Lattice
	d, _ := b.timed("replay/fca.Godin", func() error {
		l = fca.NewLatticeWith(attrs[names[0]].Interner())
		for _, n := range names {
			l.AddObject(n, attrs[n])
		}
		return nil
	})
	return d, l.Size(), nil
}

// comboSeconds is the mean wall time of one ranking-sweep combination:
// from the traced iterations' rank/… spans, or — for a workload whose
// iteration does not sweep — from a one-combination sweep of its pair.
func (b *bench) comboSeconds(man *obs.Manifest, it *iteration, sets map[string][2]*trace.TraceSet) (float64, error) {
	var ns, n int64
	count := func(m *obs.Manifest) {
		for _, st := range m.Stages {
			if strings.HasPrefix(st.Path, "rank/") {
				ns += st.WallNs
				n += st.Count
			}
		}
	}
	count(man)
	if n == 0 {
		k := it.keys[0]
		cfg, err := b.config(k.spec, k.attr, false)
		if err != nil {
			return 0, err
		}
		run := obs.NewRun("perfbench")
		ts := sets[k.pair]
		if _, err := rank.SweepContext(b.ctx, ts[0], ts[1], rank.Request{
			Specs: []string{k.spec}, Attrs: []attr.Config{cfg.Attr}, Linkage: cluster.Ward, Obs: run,
		}); err != nil {
			return 0, err
		}
		count(run.Manifest())
	}
	return float64(ns) / float64(n) / 1e9, nil
}

// replayStore times Put and Get of report-sized payloads (the iteration's
// rendered reports) on a scratch store, returning the median of each.
func (b *bench) replayStore(payloads [][]byte) (float64, float64, error) {
	st, _, err := store.Open(filepath.Join(b.dir, "probe-store"))
	if err != nil {
		return 0, 0, err
	}
	var puts, gets []float64
	for i := 0; i < storeProbes; i++ {
		payload := payloads[i%len(payloads)]
		key := store.Key([]byte(fmt.Sprintf("probe-%d", i)))
		d, err := b.timed("replay/store.Put", func() error { return st.Put(key, "report", payload) })
		if err != nil {
			return 0, 0, err
		}
		puts = append(puts, d.Seconds())
		d, err = b.timed("replay/store.Get", func() error {
			got, ok, err := st.Get(key, "report", nil)
			if err == nil && (!ok || !bytes.Equal(got, payload)) {
				err = fmt.Errorf("store probe: %s read back wrong", key)
			}
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		gets = append(gets, d.Seconds())
	}
	return median(puts), median(gets), nil
}
