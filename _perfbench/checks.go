package main

// checks.go holds the correctness checks. Each compares the program's
// output with a computation made apart from the program's analysis code
// (raw event streams, plain Go sets, the fault plan, a second pipeline
// path) or with a property the output must have. The checks are plain
// functions of their inputs so the benchmark's test can hand each one a
// corrupted answer and see it fail.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"difftrace/internal/attr"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

func allAttrs() []string {
	var out []string
	for _, c := range attr.AllConfigs() {
		out = append(out, c.String())
	}
	return out
}

// rawObject is one object's raw filtered event streams, normal and faulty.
type rawObject struct {
	level     string // "threads" or "processes"
	n, f      int64  // event counts
	firstDiff int64  // first index where the streams differ; -1 if identical
}

// rawLoopStreams decodes the pair's PLOT1 files with SymbolReader passes
// of its own and applies the spec's filter decisions per event, giving
// each thread's and each process's raw filtered stream (a process is its
// threads in thread order). Nothing here touches NLR or core.
func rawLoopStreams(ctx context.Context, pf *pairFiles, spec string) (map[string]rawObject, error) {
	flt, err := filter.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	reg := trace.NewRegistry()
	var streams [2]map[string][]uint64
	for side := range streams {
		ss, err := readStream(ctx, pf.plot[side], reg)
		if err != nil {
			return nil, err
		}
		streams[side] = map[string][]uint64{}
		for _, id := range ss.IDs() {
			var toks []uint64
			r := ss.Get(id).Reader()
			for {
				fn, kind, ok := r.Next()
				if !ok {
					break
				}
				if flt.DropReturns && kind == trace.Exit {
					continue
				}
				if !flt.KeepName(reg.Name(fn)) {
					continue
				}
				toks = append(toks, uint64(fn)<<1|uint64(kind))
			}
			streams[side][id.String()] = toks
			proc := strconv.Itoa(id.Process)
			streams[side][proc] = append(streams[side][proc], toks...)
		}
	}
	out := map[string]rawObject{}
	for _, m := range streams {
		for name := range m {
			a, b := streams[0][name], streams[1][name]
			level := "processes"
			if strings.Contains(name, ".") {
				level = "threads"
			}
			o := rawObject{level: level, n: int64(len(a)), f: int64(len(b)), firstDiff: -1}
			for i := 0; i < len(a) || i < len(b); i++ {
				if i >= len(a) || i >= len(b) || a[i] != b[i] {
					o.firstDiff = int64(i)
					break
				}
			}
			out[name] = o
		}
	}
	return out, nil
}

func levelOf(rep *core.Report, name string) *core.Level {
	if name == "threads" {
		return rep.Threads
	}
	return rep.Processes
}

// checkExpandedLengths: every object's summarized sequence expands to
// exactly as many events as its raw filtered stream holds, on both sides.
func checkExpandedLengths(rep *core.Report, raw map[string]rawObject) error {
	for name, o := range raw {
		lv := levelOf(rep, o.level)
		for _, side := range []struct {
			label string
			nlrs  map[string][]nlr.Element
			want  int64
		}{{"normal", lv.Normal.NLR, o.n}, {"faulty", lv.Faulty.NLR, o.f}} {
			elems, ok := side.nlrs[name]
			if !ok {
				return fmt.Errorf("%s object %s missing from the report", side.label, name)
			}
			if got := nlr.ExpandedLen(elems); got != side.want {
				return fmt.Errorf("%s object %s: NLR expands to %d events, raw stream has %d", side.label, name, got, side.want)
			}
		}
	}
	return nil
}

// checkLoopSuspects: the top process suspect is the perturbed process and
// every one of the top k thread suspects lies in it (k at most the
// process's thread count).
func checkLoopSuspects(rep *core.Report, target, k int) error {
	procs := rep.Processes.TopSuspects(1, 0)
	if len(procs) == 0 || procs[0] != strconv.Itoa(target) {
		return fmt.Errorf("top process suspect %v, want %d", procs, target)
	}
	inTarget := 0
	for name := range rep.Threads.Faulty.NLR {
		if id, err := trace.ParseThreadID(name); err == nil && id.Process == target {
			inTarget++
		}
	}
	k = min(k, inTarget)
	threads := rep.Threads.TopSuspects(k, 0)
	if len(threads) < k {
		return fmt.Errorf("only %d thread suspects, want %d", len(threads), k)
	}
	for _, t := range threads {
		id, err := trace.ParseThreadID(t)
		if err != nil || id.Process != target {
			return fmt.Errorf("thread suspect %s lies outside process %d (top %d: %v)", t, target, k, threads)
		}
	}
	return nil
}

// checkDivergence: objects whose raw streams are identical get no
// divergence; every other object gets one whose EventIndex is no later
// than the first raw event where the streams differ.
func checkDivergence(div *core.DivergenceReport, raw map[string]rawObject) error {
	items := map[string]*core.ObjectDivergence{}
	for _, ld := range []*core.LevelDivergence{div.Threads, div.Processes} {
		for _, it := range ld.Items {
			items[it.Object] = it
		}
	}
	for name, o := range raw {
		it := items[name]
		switch {
		case o.firstDiff < 0 && it != nil:
			return fmt.Errorf("object %s has identical raw streams but a %s divergence at event %d", name, it.Kind, it.EventIndex)
		case o.firstDiff >= 0 && it == nil:
			return fmt.Errorf("object %s: raw streams differ at event %d but no divergence reported", name, o.firstDiff)
		case it != nil && it.EventIndex > o.firstDiff:
			return fmt.Errorf("object %s: divergence at event %d, after the first raw difference at %d", name, it.EventIndex, o.firstDiff)
		}
	}
	return nil
}

// checkSameBytes: two outputs that must be byte-identical are.
func checkSameBytes(what string, a []byte, other string, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Errorf("%s (%d bytes) differs from %s (%d bytes) at byte %d", what, len(a), other, len(b), i)
}

// checkTables runs the ranking-table checks on every table of an
// iteration; n seeds the JSM sample so each iteration checks other cells.
func checkTables(b *bench, it *iteration, n int) error {
	rng := rand.New(rand.NewSource(b.opts.seed*1_000_003 + int64(n)))
	for _, t := range it.tables {
		if err := checkConsensus(t, t.pair.target); err != nil {
			return err
		}
		if err := checkTableText(t.text, len(t.pair.specs)*len(attr.AllConfigs())); err != nil {
			return fmt.Errorf("%s: %w", t.pair.name, err)
		}
		for _, row := range t.tbl.Rows {
			if err := checkJSMSample(row.Report, rng, 4); err != nil {
				return fmt.Errorf("%s %s/%s: %w", t.pair.name, row.Spec, row.Attr, err)
			}
		}
	}
	return nil
}

// checkConsensus: across the table, the process ranked first most often
// is the one the fault plan targets.
func checkConsensus(t *table, target int) error {
	c := t.tbl.Consensus(true)
	if len(c) == 0 || c[0].Name != strconv.Itoa(target) {
		return fmt.Errorf("%s: consensus top process %v, fault plan targets %d", t.pair.name, c, target)
	}
	return nil
}

var rowRE = regexp.MustCompile(`^\S+\s+\S+\s+(-?[0-9.]+)\s`)

// checkTableText reads the rendered table back: it has the expected
// number of rows, in ascending B-score order, every B-score in [0, 1].
func checkTableText(text string, rows int) error {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != rows+3 {
		return fmt.Errorf("rendered table has %d lines, want %d rows plus header, rule and footer", len(lines), rows)
	}
	prev := math.Inf(-1)
	for _, l := range lines[2 : 2+rows] {
		m := rowRE.FindStringSubmatch(l)
		if m == nil {
			return fmt.Errorf("unreadable table row %q", l)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil || v < 0 || v > 1 {
			return fmt.Errorf("row %q: B-score outside [0,1]", l)
		}
		if v < prev {
			return fmt.Errorf("row %q: B-score below the previous row's %.3f", l, prev)
		}
		prev = v
	}
	return nil
}

// checkJSMSample recomputes k random JSM cells per level and side with
// plain Go sets over the attribute strings; they must equal the program's
// values exactly, and the JSM_D cell must be |faulty − normal|.
func checkJSMSample(rep *core.Report, rng *rand.Rand, k int) error {
	for _, lv := range []struct {
		name  string
		level *core.Level
	}{{"threads", rep.Threads}, {"processes", rep.Processes}} {
		names := lv.level.JSMD.Names
		if len(names) < 2 {
			continue
		}
		for s := 0; s < k; s++ {
			i, j := rng.Intn(len(names)), rng.Intn(len(names))
			var cells [2]float64
			for side, a := range []*core.Analysis{lv.level.Normal, lv.level.Faulty} {
				want := plainJaccard(a.Attrs[names[i]].Sorted(), a.Attrs[names[j]].Sorted())
				got, err := a.JSM.At(names[i], names[j])
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("%s JSM[%s][%s] = %v, plain sets give %v", lv.name, names[i], names[j], got, want)
				}
				cells[side] = got
			}
			d, err := lv.level.JSMD.At(names[i], names[j])
			if err != nil {
				return err
			}
			if want := math.Abs(cells[1] - cells[0]); d != want {
				return fmt.Errorf("%s JSM_D[%s][%s] = %v, |faulty − normal| = %v", lv.name, names[i], names[j], d, want)
			}
		}
	}
	return nil
}

// plainJaccard is |a∩b| / |a∪b| over string sets (1 for two empty sets).
func plainJaccard(a, b []string) float64 {
	in := map[string]bool{}
	for _, x := range a {
		in[x] = true
	}
	inter, union := 0, len(in)
	seen := map[string]bool{}
	for _, x := range b {
		if seen[x] {
			continue
		}
		seen[x] = true
		if in[x] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

var suspectRE = regexp.MustCompile(`^\s+\d+\. (\S+)\s+[0-9.]+$`)

// reportSuspects reads the two suspect lists (threads, then processes)
// out of a rendered report.
func reportSuspects(report string) [2][]string {
	var out [2][]string
	level := -1
	in := false
	for _, l := range strings.Split(report, "\n") {
		if l == "suspects (similarity-row change):" {
			level++
			in = level < 2
			continue
		}
		if !in {
			continue
		}
		m := suspectRE.FindStringSubmatch(l)
		if m == nil {
			in = false
			continue
		}
		out[level] = append(out[level], m[1])
	}
	return out
}

// checkReportSuspects: the suspects a rendered service report lists
// (up to top per level) are those of the in-process reference report.
func checkReportSuspects(report string, ref *core.Report, top int) error {
	got := reportSuspects(report)
	for i, lv := range []*core.Level{ref.Threads, ref.Processes} {
		want := lv.TopSuspects(top, 0)
		if strings.Join(got[i], ",") != strings.Join(want, ",") {
			return fmt.Errorf("report lists suspects %v, in-process run ranks %v", got[i], want)
		}
	}
	return nil
}
