package logic

// eval.go is the bitset model checker. Truth sets are []uint64 bitsets
// (one bit per state), boolean connectives are word-parallel loops, and
// diamonds count successor bits through the model's compiled CSR rows.
// Memoization is a slice indexed by interned formula ID — no string keys,
// no map — and the memo rows persist across Eval calls on the same
// Evaluator, so repeated checks (characteristic formulas, Fact 1 sweeps)
// pay only for subformulas they have not seen. The inner loops allocate
// nothing in steady state and are pinned by //weakvet:noalloc.
//
// The original AST-walking Eval survives as a thin shim at the bottom of
// the file, so seed-era callers keep their signatures.

import (
	"math/bits"
	"time"

	"weakmodels/internal/kripke"
	"weakmodels/internal/obs"
)

// Logic metric names, as exported in the Prometheus text format.
const (
	// MetricEvals counts Evaluator.Eval calls that did any work
	// (at least one unmemoized node).
	MetricEvals = "weak_logic_evals_total"
	// MetricEvalNodes counts interned subformula nodes evaluated.
	MetricEvalNodes = "weak_logic_eval_nodes_total"
	// MetricEvalUs is the wall time of non-trivial Eval calls in
	// microseconds.
	MetricEvalUs = "weak_logic_eval_us"
)

// evalMetrics is the resolved metrics bundle; nil disables everything,
// the single check every emit site's nil guard reduces to.
//
//weakvet:obs newEvalMetrics returns nil unless a registry is attached; every caller guards the *evalMetrics
type evalMetrics struct {
	evals *obs.Counter
	nodes *obs.Counter
	durUs *obs.Histogram
	clock obs.Clock
}

func newEvalMetrics(o *obs.Obs) *evalMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	reg := o.Metrics
	return &evalMetrics{
		evals: reg.Counter(MetricEvals, "bitset Eval calls with at least one unmemoized node"),
		nodes: reg.Counter(MetricEvalNodes, "interned subformula nodes evaluated"),
		durUs: reg.Histogram(MetricEvalUs, "wall microseconds per non-trivial Eval call", nil),
		clock: o.ResolveClock(),
	}
}

// begin stamps the start of an Eval call.
func (m *evalMetrics) begin() time.Duration { return m.clock.Now() }

// end records one Eval call that evaluated nodes plan entries.
func (m *evalMetrics) end(start time.Duration, nodes int) {
	m.evals.Inc()
	m.nodes.Add(int64(nodes))
	m.durUs.Observe(float64((m.clock.Now() - start) / time.Microsecond))
}

// Evaluator model-checks interned formulas on one model. Memo rows are
// keyed by formula ID and persist across calls; create the Evaluator
// after the model is fully built (it captures the model's CSR form).
// Not safe for concurrent use.
type Evaluator struct {
	in  *Interner
	csr *kripke.CSR
	n   int
	w   int    // bitset words
	tw  uint64 // tail mask: bits of the last word that are real states

	rows   [][]uint64 // memoized truth sets, indexed by ID; nil = never sized
	valid  []bool     // rows[i] holds the truth set of node i
	marked []bool     // scratch: nodes needed by the current Eval
	plan   []ID       // scratch: unmemoized nodes in ascending (topological) order

	met *evalMetrics
}

// NewEvaluator returns an evaluator for formulas interned in in, checked
// on m. The model's CSR form is compiled on first use and captured; do
// not mutate m afterwards.
func NewEvaluator(m *kripke.Model, in *Interner) *Evaluator {
	csr := m.CSR()
	n := csr.N()
	tw := ^uint64(0)
	if r := uint(n) & 63; r != 0 {
		tw = (uint64(1) << r) - 1
	}
	if n == 0 {
		tw = 0
	}
	return &Evaluator{in: in, csr: csr, n: n, w: csr.Words(), tw: tw}
}

// Interner returns the arena this evaluator reads formulas from.
func (e *Evaluator) Interner() *Interner { return e.in }

// AttachObs wires a metrics registry (and its clock) into the evaluator.
// Nil detaches.
func (e *Evaluator) AttachObs(o *obs.Obs) { e.met = newEvalMetrics(o) }

// grow sizes the per-ID tables to cover id.
func (e *Evaluator) grow(id ID) {
	need := int(id) + 1
	if need <= len(e.valid) {
		return
	}
	for len(e.rows) < need {
		e.rows = append(e.rows, nil)
	}
	valid := make([]bool, need)
	copy(valid, e.valid)
	e.valid = valid
	marked := make([]bool, need)
	copy(marked, e.marked)
	e.marked = marked
}

// Eval returns the truth set ‖id‖ as a bitset of e.Words() words. The
// returned slice is the memo row — shared, valid until Reset; callers
// must not modify it.
func (e *Evaluator) Eval(id ID) []uint64 {
	if int(id) < len(e.valid) && e.valid[id] {
		return e.rows[id]
	}
	var start time.Duration
	if e.met != nil {
		start = e.met.begin()
	}
	e.grow(id)

	// Mark the unmemoized cone of id. Children have smaller IDs, so one
	// descending sweep from id propagates need; the ascending sweep that
	// follows collects the evaluation plan in topological order.
	e.marked[id] = true
	for i := id; i >= 0; i-- {
		if !e.marked[i] || e.valid[i] {
			continue
		}
		switch x := e.in.recs[i]; x.op {
		case OpNot, OpDia:
			e.marked[x.l] = true
		case OpAnd, OpOr:
			e.marked[x.l] = true
			e.marked[x.r] = true
		}
	}
	e.plan = e.plan[:0]
	for i := ID(0); i <= id; i++ {
		if e.marked[i] {
			e.marked[i] = false
			if !e.valid[i] {
				e.plan = append(e.plan, i)
			}
		}
	}
	for _, i := range e.plan {
		if e.rows[i] == nil {
			e.rows[i] = make([]uint64, e.w)
		}
	}

	e.run()

	if e.met != nil {
		e.met.end(start, len(e.plan))
	}
	return e.rows[id]
}

// run executes the current plan bottom-up. All rows are pre-sized; this
// is the steady-state hot loop.
//
//weakvet:noalloc
func (e *Evaluator) run() {
	for _, i := range e.plan {
		dst := e.rows[i]
		switch x := e.in.recs[i]; x.op {
		case OpTop:
			fillInto(dst, e.tw)
		case OpBot:
			zeroInto(dst)
		case OpProp:
			if bits := e.csr.PropBits(e.in.props[x.l]); bits != nil {
				copy(dst, bits)
			} else {
				zeroInto(dst)
			}
		case OpNot:
			notInto(dst, e.rows[x.l], e.tw)
		case OpAnd:
			andInto(dst, e.rows[x.l], e.rows[x.r])
		case OpOr:
			orInto(dst, e.rows[x.l], e.rows[x.r])
		case OpDia:
			if x.k <= 0 {
				fillInto(dst, e.tw)
				break
			}
			idx := kripke.Index{I: int(x.i), J: int(x.j)}
			off, succ, ok := e.csr.Rel(idx)
			if !ok {
				zeroInto(dst)
				break
			}
			child := e.rows[x.l]
			// ⟨α⟩ with a sparse child defeats the forward scan's early
			// break (most rows scan to the end and find nothing) — there,
			// walking the few set bits backwards over predecessor rows
			// touches only the edges that matter. Boxes are the common
			// case: [α]f is ¬⟨α⟩¬f, and a mostly-true f makes ¬f sparse.
			if x.k == 1 {
				if c := popCount(child); 2*c <= e.n {
					poff, pred, _ := e.csr.Pred(idx)
					diamondPredInto(dst, poff, pred, child)
					break
				}
			}
			diamondInto(dst, off, succ, child, x.k)
		}
		e.valid[i] = true
	}
}

// Reset invalidates every memo row (keeping their capacity), so the next
// Eval recomputes against the same model. Use after re-seeding scenario
// state, not after model mutation — the CSR snapshot is fixed.
func (e *Evaluator) Reset() {
	for i := range e.valid {
		e.valid[i] = false
	}
}

// Sat reports whether id holds at state v.
func (e *Evaluator) Sat(v int, id ID) bool {
	row := e.Eval(id)
	return row[v>>6]&(1<<(uint(v)&63)) != 0
}

// Count returns |‖id‖|, the number of states satisfying id.
func (e *Evaluator) Count(id ID) int {
	return popCount(e.Eval(id))
}

// popCount counts the set bits of a truth-set row.
//
//weakvet:noalloc
func popCount(row []uint64) int {
	total := 0
	for _, w := range row {
		total += bits.OnesCount64(w)
	}
	return total
}

// Bools expands ‖id‖ into a freshly allocated boolean vector, the seed
// Eval's result shape.
func (e *Evaluator) Bools(id ID) []bool {
	row := e.Eval(id)
	out := make([]bool, e.n)
	for v := 0; v < e.n; v++ {
		out[v] = row[v>>6]&(1<<(uint(v)&63)) != 0
	}
	return out
}

// fillInto sets every word to all-ones, with the tail word masked so
// phantom states beyond n stay 0.
//
//weakvet:noalloc
func fillInto(dst []uint64, tail uint64) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if len(dst) > 0 {
		dst[len(dst)-1] = tail
	}
}

// zeroInto clears every word.
//
//weakvet:noalloc
func zeroInto(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// notInto computes dst = ¬a, keeping phantom tail bits 0.
//
//weakvet:noalloc
func notInto(dst, a []uint64, tail uint64) {
	for i := range dst {
		dst[i] = ^a[i]
	}
	if len(dst) > 0 {
		dst[len(dst)-1] &= tail
	}
}

// andInto computes dst = a ∧ b word-parallel.
//
//weakvet:noalloc
func andInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// orInto computes dst = a ∨ b word-parallel.
//
//weakvet:noalloc
func orInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// diamondInto computes dst = ⟨α⟩≥k child by scanning each state's CSR
// successor row and counting child bits, breaking as soon as k are seen.
// Callers handle k ≤ 0 and the missing-relation case.
//
//weakvet:noalloc
func diamondInto(dst []uint64, off, succ []int32, child []uint64, k int32) {
	n := len(off) - 1
	// Process states in 64-blocks, accumulating each destination word in a
	// register and storing it once per block: full-word stores skip the
	// per-hit read-modify-write of dst and keep the tail's phantom bits
	// zero with no mask. Row scans break as soon as the grade is reached —
	// on the dense truth sets connectives produce, that is the first probe.
	for base := 0; base < n; base += 64 {
		top := base + 64
		if top > n {
			top = n
		}
		var word uint64
		i := int(off[base])
		if k == 1 {
			for v := base; v < top; v++ {
				e := int(off[v+1])
				for ; i < e; i++ {
					w := succ[i]
					if child[w>>6]&(1<<(uint32(w)&63)) != 0 {
						word |= 1 << uint(v-base)
						i = e
						break
					}
				}
			}
		} else {
			for v := base; v < top; v++ {
				e := int(off[v+1])
				count := int32(0)
				for ; i < e; i++ {
					w := succ[i]
					if child[w>>6]&(1<<(uint32(w)&63)) != 0 {
						count++
						if count >= k {
							word |= 1 << uint(v-base)
							i = e
							break
						}
					}
				}
			}
		}
		dst[base>>6] = word
	}
}

// diamondPredInto computes dst = ⟨α⟩≥1 child by walking the set bits of
// child and marking every predecessor — O(edges into ‖child‖) instead of
// a scan over all rows, which is the winning shape when child is sparse.
// Callers pick this only for k == 1 on a present relation.
//
//weakvet:noalloc
func diamondPredInto(dst []uint64, poff, pred []int32, child []uint64) {
	zeroInto(dst)
	for wi, m := range child {
		base := wi << 6
		for m != 0 {
			w := base + bits.TrailingZeros64(m)
			m &= m - 1
			for _, u := range pred[poff[w]:poff[w+1]] {
				dst[u>>6] |= 1 << (uint32(u) & 63)
			}
		}
	}
}

// Eval model-checks f on every state of m, returning the truth set ‖f‖ as
// a boolean vector. Compatibility shim over the interner/bitset path; for
// repeated checks on one model, hold an Evaluator instead so memo rows
// persist.
func Eval(m *kripke.Model, f Formula) []bool {
	in := NewInterner()
	return NewEvaluator(m, in).Bools(in.Intern(f))
}

// Sat reports whether f holds at state v of m.
func Sat(m *kripke.Model, v int, f Formula) bool { return Eval(m, f)[v] }

// TruthSet returns the states where f holds, ascending.
func TruthSet(m *kripke.Model, f Formula) []int {
	val := Eval(m, f)
	var out []int
	for v, t := range val {
		if t {
			out = append(out, v)
		}
	}
	return out
}
