package bisim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// charCases are the χ bit-identity workloads at depth 3, both fragments:
// two seeded random trees in the port-labelled and the unlabelled
// variant, and a preferential-attachment graph in the unlabelled one
// (its hubs give the port-labelled model ~1800 labels and a 16M-node χ
// arena, too slow for a unit test).
func charCases(t *testing.T, visit func(name string, m *kripke.Model, delta int, graded bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1406))
	pa, err := graph.PreferentialAttachment(3000, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	both := []kripke.Variant{kripke.VariantMM, kripke.VariantPP}
	cases := []struct {
		g        *graph.Graph
		variants []kripke.Variant
	}{
		{graph.RandomTree(5000, rng), both},
		{graph.RandomTree(5000, rng), both},
		{pa, both[:1]},
	}
	for gi, c := range cases {
		p := port.Random(c.g, rng)
		for _, variant := range c.variants {
			m := kripke.FromPorts(p, variant)
			for _, graded := range []bool{true, false} {
				visit(fmt.Sprintf("graph%d/%v/graded=%v", gi, variant, graded), m, c.g.MaxDegree(), graded)
			}
		}
	}
}

// TestCharacteristicArenaReinterns: re-interning every χ node in ID order
// into a fresh interner gives every node back its own ID, so the arena
// holds no duplicates and every child precedes its parent.
func TestCharacteristicArenaReinterns(t *testing.T) {
	charCases(t, func(name string, m *kripke.Model, delta int, graded bool) {
		in := logic.NewInterner()
		CharacteristicIDs(m, 3, delta, graded, in)
		fresh := logic.NewInterner()
		for i := logic.ID(0); int(i) < in.Len(); i++ {
			if got := reintern(fresh, in.Node(i)); got != i {
				t.Fatalf("%s: node %d (%+v) re-interns as %d", name, i, in.Node(i), got)
			}
		}
	})
}

// reintern builds n's node in in from its already-interned children.
func reintern(in *logic.Interner, n logic.Node) logic.ID {
	switch n.Op {
	case logic.OpTop:
		return in.Top()
	case logic.OpBot:
		return in.Bot()
	case logic.OpProp:
		return in.Prop(n.Prop)
	case logic.OpNot:
		return in.Not(n.L)
	case logic.OpAnd:
		return in.And(n.L, n.R)
	case logic.OpOr:
		return in.Or(n.L, n.R)
	case logic.OpDia:
		return in.Dia(n.Idx, int(n.K), n.L)
	}
	panic(fmt.Sprintf("unknown op %d", n.Op))
}

// charGoldenDigest is the SHA-256 of every case's χ IDs, interner size
// and node records, as computed by the map-keyed interner this table
// replaced. Any change to χ construction or to ID assignment moves it.
const charGoldenDigest = "641a5326ebbe5e088a3c887e625ae4b5ef33d6f7ea056ed769c3c7a1553b960c"

// TestCharacteristicGoldenDigest pins χ output bit for bit across
// interner and refiner rewrites.
func TestCharacteristicGoldenDigest(t *testing.T) {
	h := sha256.New()
	charCases(t, func(name string, m *kripke.Model, delta int, graded bool) {
		in := logic.NewInterner()
		ids := CharacteristicIDs(m, 3, delta, graded, in)
		fmt.Fprintf(h, "%s %d %v\n", name, in.Len(), ids)
		for i := logic.ID(0); int(i) < in.Len(); i++ {
			n := in.Node(i)
			fmt.Fprintf(h, "%d %d %d %d %d %d %q\n", n.Op, n.L, n.R, n.Idx.I, n.Idx.J, n.K, n.Prop)
		}
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != charGoldenDigest {
		t.Fatalf("χ digest %s, want %s", got, charGoldenDigest)
	}
}
