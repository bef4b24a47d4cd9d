package bisim

import (
	"math/rand"
	"testing"

	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/port"
)

// TestCharacteristicHennessyMilner: χ_v^t holds at exactly the states
// t-round bisimilar to v — both soundness and completeness of the
// refinement, with no sampling.
func TestCharacteristicHennessyMilner(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	graphs := []*graph.Graph{
		graph.Path(5), graph.Cycle(6), graph.Star(3), graph.Figure1Graph(),
		graph.Caterpillar(3, 1),
	}
	variants := []kripke.Variant{kripke.VariantPP, kripke.VariantMM}
	for _, g := range graphs {
		delta := g.MaxDegree()
		for _, variant := range variants {
			p := port.Random(g, rng)
			m := kripke.FromPorts(p, variant)
			for _, graded := range []bool{false, true} {
				for depth := 0; depth <= 3; depth++ {
					chars := Characteristic(m, depth, delta, graded)
					var part Partition
					if depth == 0 {
						part = make(Partition, g.N())
						ids := map[string]int{}
						for v := 0; v < g.N(); v++ {
							sig := m.PropSig(v)
							id, ok := ids[sig]
							if !ok {
								id = len(ids)
								ids[sig] = id
							}
							part[v] = id
						}
					} else {
						part = Compute(m, Options{Graded: graded, MaxRounds: depth})
					}
					for v := 0; v < g.N(); v++ {
						val := logic.Eval(m, chars[v])
						for u := 0; u < g.N(); u++ {
							if val[u] != part.Same(u, v) {
								t.Fatalf("%v %v graded=%v depth=%d: χ_%d at %d = %v but same-class = %v",
									g, variant, graded, depth, v, u, val[u], part.Same(u, v))
							}
						}
					}
				}
			}
		}
	}
}

func TestCharacteristicDepthBound(t *testing.T) {
	g := graph.Figure1Graph()
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	for depth := 0; depth <= 3; depth++ {
		for _, f := range Characteristic(m, depth, g.MaxDegree(), true) {
			if md := logic.ModalDepth(f); md > depth {
				t.Fatalf("χ at depth %d has modal depth %d", depth, md)
			}
		}
	}
}

func TestCharacteristicFragment(t *testing.T) {
	g := graph.Star(3)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	plain := Characteristic(m, 2, 3, false)
	for _, f := range plain {
		if logic.ClassifyFragment(f).Graded {
			t.Fatal("plain characteristic formula uses grading")
		}
	}
}

func TestSeparatingFormula(t *testing.T) {
	// The Theorem 13 hubs: inseparable in plain ML (bisimilar), separable
	// with grading — and Separating must exhibit the concrete formula.
	g, u, w := graph.Theorem13Witness()
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)

	if _, err := Separating(m, u, w, 4, g.MaxDegree(), false); err == nil {
		t.Fatal("plain ML separated ML-bisimilar hubs")
	}
	f, err := Separating(m, u, w, 4, g.MaxDegree(), true)
	if err != nil {
		t.Fatalf("graded separation failed: %v", err)
	}
	val := logic.Eval(m, f)
	if !val[u] || val[w] {
		t.Fatalf("separating formula does not separate: u=%v w=%v", val[u], val[w])
	}
	if !logic.ClassifyFragment(f).Graded {
		t.Error("separating formula should be graded (GML)")
	}
}

func TestSeparatingEndpointVsMiddle(t *testing.T) {
	g := graph.Path(3)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	f, err := Separating(m, 0, 1, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if logic.ModalDepth(f) != 0 {
		t.Errorf("degree alone separates endpoint from middle; got md %d", logic.ModalDepth(f))
	}
}

func BenchmarkCharacteristic(b *testing.B) {
	g := graph.Petersen()
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Characteristic(m, 2, 3, true)
	}
}

// TestCharacteristicValuationsMemoised pins the χ⁰ memo: every state's
// valuation formula is interned by the level-0 pass, so re-deriving it
// after CharacteristicIDs finds the existing ID and adds no node, and at
// depth 0 it is the characteristic formula itself.
func TestCharacteristicValuationsMemoised(t *testing.T) {
	rng := rand.New(rand.NewSource(1305))
	for _, variant := range []kripke.Variant{kripke.VariantPP, kripke.VariantMM} {
		for _, graded := range []bool{false, true} {
			g := graph.RandomTree(300, rng)
			m := kripke.FromPorts(port.Random(g, rng), variant)
			delta := g.MaxDegree()
			in := logic.NewInterner()
			CharacteristicIDs(m, 3, delta, graded, in)
			size := in.Len()
			val := make([]logic.ID, m.N())
			for v := range val {
				val[v] = valuationID(in, m, v, delta)
			}
			if in.Len() != size {
				t.Fatalf("%v graded=%v: valuation formulas grew the interner %d → %d", variant, graded, size, in.Len())
			}
			chi0 := CharacteristicIDs(m, 0, delta, graded, in)
			for v, id := range val {
				if id != chi0[v] {
					t.Fatalf("%v graded=%v: valuation of %d is %d, χ⁰ is %d", variant, graded, v, id, chi0[v])
				}
			}
		}
	}
}
