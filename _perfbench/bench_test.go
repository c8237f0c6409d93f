package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"difftrace/internal/core"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/rank"
)

// benchmarkSpec is the part of BENCHMARK.json the test compares with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: every check passes, no operation fails, and the metrics printed
// are exactly those BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, workloadNames())
	}
	units := func(traced bool) map[string]string {
		out := map[string]string{}
		list := spec.EndToEnd
		if traced {
			list = spec.PerLayer
		}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), options{
					workload: w.name, seed: 3, seconds: 1, trace: traced, root: t.TempDir(), scale: tiny,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := units(traced)
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if u, ok := want[k]; !ok || u != m.Unit {
						t.Errorf("metric %s (%s) is not declared with that unit", k, m.Unit)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("printed %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
				}
			})
		}
	}
}

// TestChecksRejectCorruptedAnswers shows the checks are not empty: each
// passes on the program's real answer and fails on one corrupted answer —
// swapped normal/faulty labels, a perturbed JSM cell, a flipped report
// byte, or a dropped NLR element.
func TestChecksRejectCorruptedAnswers(t *testing.T) {
	ctx := context.Background()
	mustFail := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: the check accepted a corrupted answer", what)
		}
	}
	mustPass := func(t *testing.T, what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: the check rejects the real answer: %v", what, err)
		}
	}

	t.Run("loops-stream", func(t *testing.T) {
		b := tinyBench(t, loopsStream)
		raw, err := rawLoopStreams(ctx, b.files[0], loopSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := b.config(loopSpec, loopAttr, false)
		if err != nil {
			t.Fatal(err)
		}
		it, err := streamIteration(b, b.files[0], cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, target := it.reports[0], b.files[0].target
		mustPass(t, "expanded lengths", checkExpandedLengths(rep, raw))
		mustPass(t, "suspects", checkLoopSuspects(rep, target, 2))
		mustPass(t, "divergence", checkDivergence(it.div, raw))

		swapped := *rep
		swapped.Threads, swapped.Processes = swapSides(rep.Threads), swapSides(rep.Processes)
		mustFail(t, "expanded lengths, swapped labels", checkExpandedLengths(&swapped, raw))

		dropped := *rep
		dropped.Processes = dropLast(rep.Processes, strconv.Itoa(target))
		mustFail(t, "expanded lengths, dropped NLR element", checkExpandedLengths(&dropped, raw))

		// An object with identical raw streams that loses its last
		// element now diverges.
		same := ""
		for name, o := range raw {
			if o.firstDiff < 0 && o.level == "threads" {
				same = name
			}
		}
		if same == "" {
			t.Fatal("tiny loop pair has no identical thread")
		}
		droppedDiv := *rep
		droppedDiv.Threads = dropLast(rep.Threads, same)
		div, err := droppedDiv.FindDivergence()
		if err != nil {
			t.Fatal(err)
		}
		mustFail(t, "divergence, dropped NLR element", checkDivergence(div, raw))

		perturbed := *rep
		a, b2 := bystanders(target)
		perturbed.Processes = perturbJSMD(rep.Processes, a, b2)
		mustFail(t, "suspects, perturbed JSM cell", checkLoopSuspects(&perturbed, target, 2))

		mustPass(t, "same bytes", checkSameBytes("a", it.out, "b", it.out))
		mustFail(t, "same bytes, flipped report byte", checkSameBytes("a", it.out, "b", flipByte(it.out)))
	})

	t.Run("sweep-lulesh", func(t *testing.T) {
		b := tinyBench(t, sweepLULESH)
		it, err := sweepLULESH.iterate(b)
		if err != nil {
			t.Fatal(err)
		}
		mustPass(t, "tables", checkTables(b, it, 0))
		tb := it.tables[0]
		target := tb.pair.target

		perturbedTable := &table{pair: tb.pair, text: tb.text, tbl: &rank.Table{Linkage: tb.tbl.Linkage}}
		a, b2 := bystanders(target)
		for _, row := range tb.tbl.Rows {
			lv := perturbJSMD(row.Report.Processes, a, b2)
			row.TopProcesses = lv.TopSuspects(6, 1e-9)
			perturbedTable.tbl.Rows = append(perturbedTable.tbl.Rows, row)
		}
		mustFail(t, "consensus, perturbed JSM cell", checkConsensus(perturbedTable, target))

		rows := len(tb.pair.specs) * len(allAttrs())
		mustPass(t, "table text", checkTableText(tb.text, rows))
		lines := strings.SplitAfter(tb.text, "\n")
		i := strings.Index(lines[2], " 0.") + 1 // the first row's B-score
		if i == 0 {
			t.Fatalf("no B-score in %q", lines[2])
		}
		lines[2] = lines[2][:i] + "9" + lines[2][i+1:]
		mustFail(t, "table text, flipped report byte", checkTableText(strings.Join(lines, ""), rows))

		rep := tb.tbl.Rows[0].Report
		mustPass(t, "JSM sample", checkJSMSample(rep, rand.New(rand.NewSource(1)), 4))
		bad := *rep
		bad.Threads = perturbJSM(rep.Threads)
		mustFail(t, "JSM sample, perturbed JSM cell", checkJSMSample(&bad, rand.New(rand.NewSource(1)), 2000))
	})

	t.Run("service-mix", func(t *testing.T) {
		b := tinyBench(t, serviceMix)
		it, err := serviceMix.iterate(b)
		if err != nil {
			t.Fatal(err)
		}
		ref := it.tables[0].tbl.Rows[0].Report
		var rendered strings.Builder
		if err := ref.WriteReport(&rendered, core.RenderOptions{TopK: reportTop}); err != nil {
			t.Fatal(err)
		}
		report := rendered.String()
		mustPass(t, "report suspects", checkReportSuspects(report, ref, reportTop))
		perturbed := *ref
		a, b2 := bystanders(b.files[0].target)
		perturbed.Processes = perturbJSMD(ref.Processes, a, b2)
		mustFail(t, "report suspects, perturbed JSM cell", checkReportSuspects(report, &perturbed, reportTop))

		mustFail(t, "hit bytes, flipped report byte", checkSameBytes("hit", flipByte([]byte(report)), "cold", []byte(report)))

		mustPass(t, "job done", checkJobDone(jobView{State: "done"}))
		mustFail(t, "job done, failed job", checkJobDone(jobView{State: "failed", Error: "boom"}))

		mustPass(t, "cache counters", checkCacheCounters(30, 10, 40, 10))
		mustFail(t, "cache counters, a repeat recomputed", checkCacheCounters(29, 11, 40, 10))
	})
}

// tinyBench writes a workload's tiny inputs and returns a bench over them.
func tinyBench(t *testing.T, w *workload) *bench {
	t.Helper()
	b := &bench{opts: options{seed: 3, scale: tiny}, w: w, ctx: context.Background(), refs: map[refKey]*core.Report{}}
	files, err := writeInputs(func() ([]*pair, error) { return w.pairs(3, tiny) }, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.files = files
	return b
}

// bystanders names two processes other than target.
func bystanders(target int) (string, string) {
	var out []string
	for p := 0; len(out) < 2; p++ {
		if p != target {
			out = append(out, strconv.Itoa(p))
		}
	}
	return out[0], out[1]
}

func swapSides(l *core.Level) *core.Level {
	c := *l
	c.Normal, c.Faulty = l.Faulty, l.Normal
	return &c
}

// dropLast removes the last NLR element of the faulty side's object.
func dropLast(l *core.Level, object string) *core.Level {
	c := *l
	f := *l.Faulty
	f.NLR = map[string][]nlr.Element{}
	for k, v := range l.Faulty.NLR {
		f.NLR[k] = v
	}
	elems := f.NLR[object]
	f.NLR[object] = elems[:len(elems)-1]
	c.Faulty = &f
	return &c
}

// perturbJSMD sets one JSM_D cell far out of range and re-ranks the
// suspects from the perturbed matrix.
func perturbJSMD(l *core.Level, a, b string) *core.Level {
	c := *l
	c.JSMD = copyJSM(l.JSMD)
	i, j := c.JSMD.Index(a), c.JSMD.Index(b)
	c.JSMD.M[i][j], c.JSMD.M[j][i] = 10, 10
	c.Suspects = c.JSMD.Suspects()
	return &c
}

// perturbJSM nudges one cell of the normal side's JSM.
func perturbJSM(l *core.Level) *core.Level {
	c := *l
	n := *l.Normal
	n.JSM = copyJSM(l.Normal.JSM)
	n.JSM.M[0][1] += 1e-9
	n.JSM.M[1][0] += 1e-9
	c.Normal = &n
	return &c
}

func copyJSM(j *jaccard.JSM) *jaccard.JSM {
	c := &jaccard.JSM{Names: j.Names}
	for _, row := range j.M {
		c.M = append(c.M, append([]float64(nil), row...))
	}
	return c
}

func flipByte(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}
