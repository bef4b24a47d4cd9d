// Logic scale benchmarks: the interned bitset evaluator and the
// integer-signature partition refiner against the seed-era string-keyed
// paths (reimplemented verbatim below as the legacy* functions), on
// expanders and tori at n=10³ and n=10⁴ — plus an n=10⁵ sweep of the new
// paths (skipped under -short so the CI bench smoke stays fast). These
// are the ≥10×-at-n=10⁴ records of PR 10; run
//
//	go test -bench='Bench(EvalBitset|EvalLegacy|BisimRefine)' -benchmem
//
// for the full sweep, or emit the machine-readable record with
//
//	BENCH_LOGIC_JSON=BENCH_logic.json go test -run TestEmitLogicBenchJSON
//
// so future PRs can compare against the committed BENCH_logic.json
// (cmd/benchdiff checks both ns/op and allocs/op).
package weakmodels_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"weakmodels/internal/bisim"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/port"
)

// logicBenchFormulas is the fixed evaluation workload: depth-2..3
// formulas of both fragments over the q1..q4 degree props, shaped like
// the formulas the suite actually checks at scale (characteristic
// formulas, Fact 1 sweeps): a handful of modal operators over wide
// Boolean combinations, with shared subformulas so the interner's DAG
// sharing is part of the measurement. All modal operators are
// star-labeled because the benchmark models are built in variant mm,
// where only the unlabeled relation exists — a port-labeled diamond
// there would be a free all-false row, not work.
var logicBenchFormulas = []string{
	"<*,*> ((q1 | q2) & !(q3 & q4))",
	"[*,*] ((q1 & q2) | (!q3 & <*,*> (q2 | q4)))",
	"<*,*>=2 ((q2 | !q3) & (q1 | q4)) | <*,*> (q1 & !q2)",
	"!([*,*] (q1 | q2 | q3) & <*,*> <*,*> ((q1 | !q4) & q2))",
	"<*,*>=3 (!q1 & (q2 | q3)) & [*,*] (q4 | !q2 | q1)",
	"<*,*> [*,*] ((q1 & !q3) | (q2 & !q4))",
}

// logicBenchModels builds the base sweep: the expander family at two
// orders of magnitude plus the paper's torus at n=10⁴, all in the
// richest variant (mm) so every formula above is meaningful.
func logicBenchModels(tb testing.TB) map[string]*kripke.Model {
	tb.Helper()
	ex1k, err := graph.Expander(1000, 4, 13)
	if err != nil {
		tb.Fatal(err)
	}
	ex10k, err := graph.Expander(10_000, 4, 13)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*kripke.Model{
		"n=1000/expander4":  kripke.FromPorts(port.Canonical(ex1k), kripke.VariantMM),
		"n=10000/expander4": kripke.FromPorts(port.Canonical(ex10k), kripke.VariantMM),
		"n=10000/torus100":  kripke.FromPorts(port.Canonical(graph.Torus(100, 100)), kripke.VariantMM),
	}
}

// logicBenchLargeModels is the n=10⁵ sweep of the new paths only — the
// legacy implementations take minutes per op there, which is the point
// of the PR, not something to re-measure every CI run.
func logicBenchLargeModels(tb testing.TB) map[string]*kripke.Model {
	tb.Helper()
	ex, err := graph.Expander(100_000, 4, 13)
	if err != nil {
		tb.Fatal(err)
	}
	pa, err := graph.PreferentialAttachment(100_000, 3, 17)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*kripke.Model{
		"n=100000/expander4": kripke.FromPorts(port.Canonical(ex), kripke.VariantMM),
		"n=100000/pa3":       kripke.FromPorts(port.Canonical(pa), kripke.VariantMM),
	}
}

// sortedModelNames keeps b.Run order deterministic across runs.
func sortedModelNames(models map[string]*kripke.Model) []string {
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// legacyBenchEval is the seed-era Eval: recursive AST walk memoized on
// rendered subformulas through a map — the old path the bitset evaluator
// replaced, kept verbatim as the benchmark baseline.
func legacyBenchEval(m *kripke.Model, f logic.Formula, memo map[string][]bool) []bool {
	key := f.String()
	if v, ok := memo[key]; ok {
		return v
	}
	n := m.N()
	out := make([]bool, n)
	switch x := f.(type) {
	case logic.Top:
		for i := range out {
			out[i] = true
		}
	case logic.Bot:
	case logic.Prop:
		for v := 0; v < n; v++ {
			out[v] = m.Prop(x.Name, v)
		}
	case logic.Not:
		inner := legacyBenchEval(m, x.F, memo)
		for v := 0; v < n; v++ {
			out[v] = !inner[v]
		}
	case logic.And:
		l := legacyBenchEval(m, x.L, memo)
		r := legacyBenchEval(m, x.R, memo)
		for v := 0; v < n; v++ {
			out[v] = l[v] && r[v]
		}
	case logic.Or:
		l := legacyBenchEval(m, x.L, memo)
		r := legacyBenchEval(m, x.R, memo)
		for v := 0; v < n; v++ {
			out[v] = l[v] || r[v]
		}
	case logic.Diamond:
		inner := legacyBenchEval(m, x.F, memo)
		for v := 0; v < n; v++ {
			count := 0
			for _, w := range m.Succ(x.Idx, v) {
				if inner[w] {
					count++
					if count >= x.K {
						break
					}
				}
			}
			out[v] = count >= x.K
		}
	default:
		panic(fmt.Sprintf("bench: unknown formula %T", f))
	}
	memo[key] = out
	return out
}

// legacyBenchCompute is the seed-era bisim.Compute: string signatures
// through maps, dense ids by first occurrence — the old path the
// integer-signature refiner replaced, kept verbatim as the baseline.
func legacyBenchCompute(m *kripke.Model, graded bool) bisim.Partition {
	n := m.N()
	part := make(bisim.Partition, n)
	ids := make(map[string]int)
	for v := 0; v < n; v++ {
		sig := m.PropSig(v)
		id, ok := ids[sig]
		if !ok {
			id = len(ids)
			ids[sig] = id
		}
		part[v] = id
	}
	indices := m.Indices()
	for {
		next := legacyBenchRefine(m, part, indices, graded)
		if legacyBenchClasses(part) == legacyBenchClasses(next) {
			return next
		}
		part = next
	}
}

func legacyBenchRefine(m *kripke.Model, part bisim.Partition, indices []kripke.Index, graded bool) bisim.Partition {
	n := m.N()
	next := make(bisim.Partition, n)
	ids := make(map[string]int)
	var sb strings.Builder
	for v := 0; v < n; v++ {
		sb.Reset()
		fmt.Fprintf(&sb, "c%d", part[v])
		for _, alpha := range indices {
			succ := m.Succ(alpha, v)
			classes := make([]int, 0, len(succ))
			for _, w := range succ {
				classes = append(classes, part[w])
			}
			sort.Ints(classes)
			if !graded {
				out := classes[:0]
				for i, x := range classes {
					if i == 0 || x != classes[i-1] {
						out = append(out, x)
					}
				}
				classes = out
			}
			fmt.Fprintf(&sb, "|%v:%v", alpha, classes)
		}
		sig := sb.String()
		id, ok := ids[sig]
		if !ok {
			id = len(ids)
			ids[sig] = id
		}
		next[v] = id
	}
	return next
}

func legacyBenchClasses(p bisim.Partition) int {
	seen := make(map[int]bool)
	for _, c := range p {
		seen[c] = true
	}
	return len(seen)
}

// benchEvalBitset measures the new path: one shared interner/evaluator
// per model, Reset per op so every truth set is recomputed through the
// bitset kernels (the memo fast-path would otherwise reduce later ops to
// a slice load).
func benchEvalBitset(b *testing.B, models map[string]*kripke.Model) {
	for _, name := range sortedModelNames(models) {
		m := models[name]
		m.CSR() // compile outside the timers, like port.Routes
		in := logic.NewInterner()
		ev := logic.NewEvaluator(m, in)
		ids := make([]logic.ID, len(logicBenchFormulas))
		for i, src := range logicBenchFormulas {
			ids[i] = in.Intern(logic.MustParse(src))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Reset()
				for _, id := range ids {
					ev.Eval(id)
				}
			}
		})
	}
}

// BenchmarkEvalBitset sweeps the interned bitset evaluator over the full
// workload on the base models. Compare against BenchmarkEvalLegacyMap —
// same models, same formulas, the seed's map-memoized AST walk.
func BenchmarkEvalBitset(b *testing.B) { benchEvalBitset(b, logicBenchModels(b)) }

// BenchmarkEvalBitsetLarge is the n=10⁵ sweep, skipped under -short so
// the CI bench smoke stays fast.
func BenchmarkEvalBitsetLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10⁵ sweep skipped in -short mode")
	}
	benchEvalBitset(b, logicBenchLargeModels(b))
}

// BenchmarkEvalLegacyMap is the old path on the base models: a fresh
// string-keyed memo per formula, exactly what the seed's Eval(m, f) did
// before PR 10 — the memo lived inside the call, so nothing was shared
// across formulas. (The persistent cross-formula memo is the new
// evaluator's feature, not the baseline's.)
func BenchmarkEvalLegacyMap(b *testing.B) {
	models := logicBenchModels(b)
	for _, name := range sortedModelNames(models) {
		m := models[name]
		fs := make([]logic.Formula, len(logicBenchFormulas))
		for i, src := range logicBenchFormulas {
			fs[i] = logic.MustParse(src)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fs {
					legacyBenchEval(m, f, make(map[string][]bool))
				}
			}
		})
	}
}

// benchBisimRefine measures fixpoint refinement on each model at a given
// worker count, both fragments.
func benchBisimRefine(b *testing.B, models map[string]*kripke.Model, workers int) {
	for _, name := range sortedModelNames(models) {
		m := models[name]
		m.CSR()
		for _, graded := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/graded=%v", name, graded), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bisim.Compute(m, bisim.Options{Graded: graded, Workers: workers})
				}
			})
		}
	}
}

// BenchmarkBisimRefine sweeps the integer-signature refiner, sequential
// fill, to fixpoint on the base models. Compare against
// BenchmarkBisimRefineLegacy — the seed's string-signature loop.
func BenchmarkBisimRefine(b *testing.B) { benchBisimRefine(b, logicBenchModels(b), 1) }

// BenchmarkBisimRefinePar is the sharded signature fill at
// benchParWorkers — the partition is bit-identical to the sequential
// entry; only the fill wall-clock changes.
func BenchmarkBisimRefinePar(b *testing.B) {
	benchBisimRefine(b, logicBenchModels(b), benchParWorkers())
}

// BenchmarkBisimRefineLarge is the n=10⁵ sweep at benchParWorkers,
// skipped under -short.
func BenchmarkBisimRefineLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10⁵ sweep skipped in -short mode")
	}
	benchBisimRefine(b, logicBenchLargeModels(b), benchParWorkers())
}

// BenchmarkBisimRefineLegacy is the old path on the base models: string
// signatures through maps, exactly what bisim.Compute did before PR 10.
func BenchmarkBisimRefineLegacy(b *testing.B) {
	models := logicBenchModels(b)
	for _, name := range sortedModelNames(models) {
		m := models[name]
		for _, graded := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/graded=%v", name, graded), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					legacyBenchCompute(m, graded)
				}
			})
		}
	}
}

// charBenchModel is the characteristic-formula workload: a seeded random
// tree of 5·10⁴ nodes as an mm model, the shape of the logic-tree
// benchmark job, with its Δ for the degree valuation.
func charBenchModel() (*kripke.Model, int) {
	g := graph.RandomTree(50_000, rand.New(rand.NewSource(1501)))
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	m.CSR()
	return m, g.MaxDegree()
}

// charBenchDepth is the χ depth of the characteristic-formula rows.
const charBenchDepth = 3

// benchCharacteristic builds every state's depth-3 χ into a fresh
// interner per op: refinement plus hash-consing, no evaluation.
func benchCharacteristic(b *testing.B, m *kripke.Model, delta int, graded bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bisim.CharacteristicIDs(m, charBenchDepth, delta, graded, logic.NewInterner())
	}
}

// BenchmarkCharacteristicIDs times characteristic-formula construction on
// the n=5·10⁴ random tree, both fragments.
func BenchmarkCharacteristicIDs(b *testing.B) {
	m, delta := charBenchModel()
	for _, graded := range []bool{true, false} {
		b.Run(fmt.Sprintf("n=50000/tree/graded=%v", graded), func(b *testing.B) {
			benchCharacteristic(b, m, delta, graded)
		})
	}
}

// logicBenchRecord is one row of BENCH_logic.json.
type logicBenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestEmitLogicBenchJSON writes the logic perf record to the file named
// by BENCH_LOGIC_JSON (skipped when unset):
//
//	BENCH_LOGIC_JSON=BENCH_logic.json go test -run TestEmitLogicBenchJSON
//
// The record includes both the new bitset/integer paths and the legacy
// string-keyed baselines at n=10³..10⁴, so the ≥10× claim of PR 10 is a
// number in the repo, not a sentence in a commit message.
func TestEmitLogicBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_LOGIC_JSON")
	if path == "" {
		t.Skip("BENCH_LOGIC_JSON not set")
	}
	var records []logicBenchRecord
	add := func(name string, r testing.BenchmarkResult) {
		records = append(records, logicBenchRecord{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	base := logicBenchModels(t)
	for _, name := range sortedModelNames(base) {
		m := base[name]
		m.CSR()
		in := logic.NewInterner()
		ev := logic.NewEvaluator(m, in)
		ids := make([]logic.ID, len(logicBenchFormulas))
		fs := make([]logic.Formula, len(logicBenchFormulas))
		for i, src := range logicBenchFormulas {
			fs[i] = logic.MustParse(src)
			ids[i] = in.Intern(fs[i])
		}
		add("Logic/eval-bitset/"+name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.Reset()
				for _, id := range ids {
					ev.Eval(id)
				}
			}
		}))
		add("Logic/eval-legacy/"+name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range fs {
					legacyBenchEval(m, f, make(map[string][]bool))
				}
			}
		}))
		for _, graded := range []bool{false, true} {
			graded := graded
			add(fmt.Sprintf("Logic/refine-int/%s/graded=%v", name, graded), testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bisim.Compute(m, bisim.Options{Graded: graded, Workers: 1})
				}
			}))
			add(fmt.Sprintf("Logic/refine-int-par/%s/graded=%v", name, graded), testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bisim.Compute(m, bisim.Options{Graded: graded, Workers: benchParWorkers()})
				}
			}))
			add(fmt.Sprintf("Logic/refine-legacy/%s/graded=%v", name, graded), testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					legacyBenchCompute(m, graded)
				}
			}))
		}
	}
	// The n=10⁵ record: new paths only (the legacy paths take minutes per
	// op at this size — which is the headline, not a CI workload).
	large := logicBenchLargeModels(t)
	for _, name := range sortedModelNames(large) {
		m := large[name]
		m.CSR()
		in := logic.NewInterner()
		ev := logic.NewEvaluator(m, in)
		ids := make([]logic.ID, len(logicBenchFormulas))
		for i, src := range logicBenchFormulas {
			ids[i] = in.Intern(logic.MustParse(src))
		}
		add("Logic/eval-bitset/"+name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.Reset()
				for _, id := range ids {
					ev.Eval(id)
				}
			}
		}))
		for _, graded := range []bool{false, true} {
			graded := graded
			add(fmt.Sprintf("Logic/refine-int-par/%s/graded=%v", name, graded), testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bisim.Compute(m, bisim.Options{Graded: graded, Workers: benchParWorkers()})
				}
			}))
		}
	}
	tree, delta := charBenchModel()
	for _, graded := range []bool{true, false} {
		add(fmt.Sprintf("Logic/char/n=50000/tree/graded=%v", graded), testing.Benchmark(func(b *testing.B) {
			benchCharacteristic(b, tree, delta, graded)
		}))
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Name < records[j].Name })
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d records to %s", len(records), path)
}
