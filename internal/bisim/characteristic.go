package bisim

// Characteristic formulas à la Hennessy–Milner: for every state v and depth
// t, a formula χ_v^t of modal depth ≤ t that holds at exactly the states
// t-round bisimilar to v. This is the converse direction of Fact 1 — not
// only do bisimilar states satisfy the same formulas, but non-bisimilar
// states are *separated by a concrete formula* the library can exhibit.
// The separation arguments of Section 5.3 therefore never rely on sampling.
//
// Construction (plain ML/MML flavour):
//
//	χ_v^0   = "my valuation" (here: the degree formula)
//	χ_v^t+1 = χ_v^0 ∧ ⋀_α [ ⋀_{C ∈ S(v,α)} ⟨α⟩χ_C^t  ∧  [α](⋁_{C ∈ S(v,α)} χ_C^t) ]
//
// where S(v,α) is the set of (t-round) classes of v's α-successors. The
// graded flavour replaces the two conjuncts by exact counts
// ⟨α⟩≥k χ_C ∧ ¬⟨α⟩≥k+1 χ_C per class.
//
// The construction runs on the integer refiner: states sharing a level-t
// characteristic formula are exactly the states in the same class after t
// refinement rounds from the Δ-valuation partition, so formulas are built
// once per class (from a representative state) instead of once per state,
// and subformulas are hash-consed — the level-(t-1) class formulas appear
// by ID, not by re-rendered string.

import (
	"fmt"
	"slices"

	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
)

// Characteristic returns, for every node, a formula of modal depth ≤ depth
// characterising its depth-round equivalence class in m. delta is the Δ of
// the valuation Φ_Δ (for the degree formulas).
func Characteristic(m *kripke.Model, depth, delta int, graded bool) []logic.Formula {
	in := logic.NewInterner()
	ids := CharacteristicIDs(m, depth, delta, graded, in)
	// Reconstruct each distinct class formula once; states of a class
	// share the interface value.
	byID := make(map[logic.ID]logic.Formula)
	out := make([]logic.Formula, len(ids))
	for v, id := range ids {
		f, ok := byID[id]
		if !ok {
			f = in.Formula(id)
			byID[id] = f
		}
		out[v] = f
	}
	return out
}

// CharacteristicIDs is Characteristic on the interned path: the returned
// slice maps each state to the ID of its class's characteristic formula
// in in. Evaluate the IDs with a logic.Evaluator built on the same
// interner to keep memo rows shared across depths and states.
func CharacteristicIDs(m *kripke.Model, depth, delta int, graded bool, in *logic.Interner) []logic.ID {
	n := m.N()
	csr := m.CSR()
	r := newRefiner(csr, graded, 0)

	// Level 0 partitions by the Δ-restricted valuation — what the degree
	// formulas can express — which is at most as fine as the refiner's
	// default full-valuation classes.
	initDeltaPartition(r, delta)
	// χ⁰ of a state depends only on its level-0 class, so the level-0
	// formulas double as the χ⁰ conjunct at every depth.
	level0 := slices.Clone(r.cur)
	reps := representatives(r.cur, r.classes)
	valF := make([]logic.ID, r.classes)
	for c, rep := range reps {
		valF[c] = valuationID(in, m, int(rep), delta)
	}
	classF := valF

	indices := csr.Indices()
	// Scratch reused across classes and labels: a representative's
	// successor classes (sorted), its conjuncts, and one label's box
	// disjuncts. The interner copies nothing out of them.
	var succClasses []int32
	var conjuncts, disjuncts []logic.ID
	for d := 1; d <= depth; d++ {
		prev := r.cur
		prevF := classF
		// One refinement round. Even at fixpoint the formulas deepen
		// (the partition just stops splitting), matching the recursive
		// construction; the swapped-in ids equal prev's when unchanged.
		r.fill()
		r.classes = r.group()
		r.cur, r.next = r.next, r.cur

		reps = representatives(r.cur, r.classes)
		classF = make([]logic.ID, r.classes)
		for c, rep := range reps {
			conjuncts = append(conjuncts[:0], valF[level0[rep]])
			for ai, alpha := range indices {
				off, succ := r.offs[ai], r.succs[ai]
				succClasses = succClasses[:0]
				for _, w := range succ[off[rep]:off[rep+1]] {
					succClasses = append(succClasses, prev[w])
				}
				slices.Sort(succClasses)
				// Per distinct successor class, in ascending id order:
				// the diamond conjuncts, then the box over all present.
				disjuncts = disjuncts[:0]
				for i := 0; i < len(succClasses); {
					c2 := succClasses[i]
					k := 0
					for i < len(succClasses) && succClasses[i] == c2 {
						k++
						i++
					}
					if graded {
						conjuncts = append(conjuncts,
							in.Dia(alpha, k, prevF[c2]),
							in.Not(in.Dia(alpha, k+1, prevF[c2])),
						)
					} else {
						conjuncts = append(conjuncts, in.Dia(alpha, 1, prevF[c2]))
					}
					disjuncts = append(disjuncts, prevF[c2])
				}
				// No successors outside the listed classes: every
				// successor satisfies one of them ([α]⊥ when none).
				conjuncts = append(conjuncts, in.Box(alpha, in.BigOr(disjuncts...)))
			}
			classF[c] = in.BigAnd(conjuncts...)
		}
	}

	out := make([]logic.ID, n)
	for v := 0; v < n; v++ {
		out[v] = classF[r.cur[v]]
	}
	return out
}

// initDeltaPartition resets the refiner's classes to the Δ-restricted
// valuation partition: states agreeing on q_1..q_Δ share a class, dense
// ids by first occurrence in state order. Each q_d's truth set is read
// once, as the CSR bitset.
func initDeltaPartition(r *refiner, delta int) {
	bits := make([][]uint64, delta+1) // nil when the model lacks q_d
	for d := 1; d <= delta; d++ {
		bits[d] = r.csr.PropBits(kripke.DegreeProp(d))
	}
	key := make([]byte, (delta+7)/8)
	ids := make(map[string]int32)
	for v := 0; v < r.n; v++ {
		for i := range key {
			key[i] = 0
		}
		for d := 1; d <= delta; d++ {
			if b := bits[d]; b != nil && b[v>>6]&(1<<(uint(v)&63)) != 0 {
				key[(d-1)>>3] |= 1 << (uint(d-1) & 7)
			}
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		r.cur[v] = id
	}
	r.classes = len(ids)
}

// representatives returns the first state of each class. Ids are dense by
// first occurrence, so the result is ascending.
func representatives(cur []int32, classes int) []int32 {
	reps := make([]int32, classes)
	for i := range reps {
		reps[i] = -1
	}
	for v, c := range cur {
		if reps[c] == -1 {
			reps[c] = int32(v)
		}
	}
	return reps
}

// valuationID interns the formula characterising the exact valuation of v
// over Φ_Δ.
func valuationID(in *logic.Interner, m *kripke.Model, v, delta int) logic.ID {
	var conj []logic.ID
	for d := 1; d <= delta; d++ {
		q := in.Prop(kripke.DegreeProp(d))
		if m.Prop(kripke.DegreeProp(d), v) {
			conj = append(conj, q)
		} else {
			conj = append(conj, in.Not(q))
		}
	}
	return in.BigAnd(conj...)
}

// Separating returns a formula of modal depth ≤ maxDepth that is true at u
// and false at v (or an error if they are bisimilar up to maxDepth, in
// which case no such formula exists by Fact 1). The formula's fragment
// matches graded. All depths share one interner and evaluator, so deeper
// probes reuse every truth set the shallower ones computed.
func Separating(m *kripke.Model, u, v, maxDepth, delta int, graded bool) (logic.Formula, error) {
	in := logic.NewInterner()
	ev := logic.NewEvaluator(m, in)
	for depth := 0; depth <= maxDepth; depth++ {
		ids := CharacteristicIDs(m, depth, delta, graded, in)
		f := ids[u]
		if ev.Sat(u, f) && !ev.Sat(v, f) {
			return in.Formula(f), nil
		}
	}
	return nil, fmt.Errorf("bisim: states %d and %d are %d-round bisimilar; no separating formula of depth ≤ %d",
		u, v, maxDepth, maxDepth)
}
