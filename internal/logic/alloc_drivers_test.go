package logic

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per //weakvet:noalloc
// function, keyed by receiver-qualified name. Each driver does its setup
// once and returns the hot closure that testing.AllocsPerRun measures.

import (
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/port"
)

// weakvetHotEval builds an evaluator over a torus model with a formula
// exercising every node kind, primed so repeated Reset+Eval cycles run
// the full plan without allocating.
func weakvetHotEval() (*Evaluator, ID) {
	g := graph.Torus(8, 8)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	in := NewInterner()
	star := kripke.Index{}
	q := in.Prop(kripke.DegreeProp(4))
	dia := in.Dia(star, 2, in.Or(q, in.Not(in.Dia(star, 1, q))))
	box := in.Box(star, in.And(q, in.Dia(star, 1, q)))
	id := in.And(in.And(dia, box), in.Or(in.Top(), in.Bot()))
	e := NewEvaluator(m, in)
	e.Eval(id) // size every memo row
	return e, id
}

// weakvetWords matches the torus model above: 64 states, one word.
const weakvetWords = 1

// weakvetSinkID keeps probe's result live without allocating.
var weakvetSinkID ID

var weakvetAllocDrivers = map[string]func() func(){
	"(*Interner).probe": func() func() {
		// A table regrown a few times, probed for a present record and
		// for an absent one that shares its children.
		e, id := weakvetHotEval()
		in := e.in
		for i := 0; i < 200; i++ {
			id = in.Dia(kripke.Index{}, i, id)
		}
		hit := in.recs[id]
		miss := rec{op: OpDia, l: hit.l, k: -1}
		return func() {
			weakvetSinkID, _ = in.probe(hit, hit.hash())
			weakvetSinkID, _ = in.probe(miss, miss.hash())
		}
	},
	"(*Evaluator).run": func() func() {
		e, id := weakvetHotEval()
		return func() {
			e.Reset()
			e.Eval(id)
		}
	},
	"fillInto": func() func() {
		dst := make([]uint64, weakvetWords)
		return func() { fillInto(dst, ^uint64(0)) }
	},
	"zeroInto": func() func() {
		dst := make([]uint64, weakvetWords)
		return func() { zeroInto(dst) }
	},
	"notInto": func() func() {
		dst := make([]uint64, weakvetWords)
		a := make([]uint64, weakvetWords)
		return func() { notInto(dst, a, ^uint64(0)) }
	},
	"andInto": func() func() {
		dst := make([]uint64, weakvetWords)
		a := make([]uint64, weakvetWords)
		b := make([]uint64, weakvetWords)
		return func() { andInto(dst, a, b) }
	},
	"orInto": func() func() {
		dst := make([]uint64, weakvetWords)
		a := make([]uint64, weakvetWords)
		b := make([]uint64, weakvetWords)
		return func() { orInto(dst, a, b) }
	},
	"diamondInto": func() func() {
		e, _ := weakvetHotEval()
		off, succ, ok := e.csr.Rel(kripke.Index{})
		if !ok {
			panic("weakvet driver: torus model lost its (∗,∗) relation")
		}
		dst := make([]uint64, e.w)
		child := make([]uint64, e.w)
		for i := range child {
			child[i] = 0xAAAAAAAAAAAAAAAA
		}
		return func() { diamondInto(dst, off, succ, child, 2) }
	},
	"diamondPredInto": func() func() {
		e, _ := weakvetHotEval()
		poff, pred, ok := e.csr.Pred(kripke.Index{})
		if !ok {
			panic("weakvet driver: torus model lost its (∗,∗) relation")
		}
		dst := make([]uint64, e.w)
		child := make([]uint64, e.w)
		for i := range child {
			child[i] = 0x0000000100010001 // sparse, the kernel's shape
		}
		return func() { diamondPredInto(dst, poff, pred, child) }
	},
	"popCount": func() func() {
		row := make([]uint64, weakvetWords)
		row[0] = 0xAAAAAAAAAAAAAAAA
		var sink int
		return func() { sink = popCount(row); _ = sink }
	},
}
