package logic

import (
	"math/rand"
	"strings"
	"testing"

	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/port"
)

func star(i, j int) kripke.Index { return kripke.Index{I: i, J: j} }

func TestStringRendering(t *testing.T) {
	cases := []struct {
		f    Formula
		want string
	}{
		{Prop{Name: "q3"}, "q3"},
		{Top{}, "true"},
		{Bot{}, "false"},
		{Not{F: Prop{Name: "p"}}, "!p"},
		{And{L: Prop{Name: "p"}, R: Prop{Name: "q"}}, "p & q"},
		{Or{L: Prop{Name: "p"}, R: Prop{Name: "q"}}, "p | q"},
		{Dia(star(2, 1), Prop{Name: "p"}), "<2,1> p"},
		{DiaGeq(star(0, 1), 3, Prop{Name: "p"}), "<*,1>=3 p"},
		{Dia(star(0, 0), Prop{Name: "p"}), "<*,*> p"},
	}
	for _, tc := range cases {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 400; i++ {
		f := RandomFormula(rng, 4, 3, true)
		got, err := Parse(f.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", f.String(), err)
		}
		if !Equal(f, got) {
			t.Fatalf("round trip: %q became %q", f.String(), got.String())
		}
	}
}

func TestParseSurfaceForms(t *testing.T) {
	good := map[string]string{
		"p & q | r":      "(p & q) | r", // & binds tighter
		"p | q & r":      "p | (q & r)",
		"!p & q":         "(!p) & q",
		"[1,2] p":        "!(<1,2> (!p))",
		"< * , 3 >=2 q1": "<*,3>=2 q1",
		"((p))":          "p",
		"true & false":   "true & false",
		"<1,1> <2,2> p":  "<1,1> (<2,2> p)",
	}
	for src, canon := range good {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		want := MustParse(canon)
		if !Equal(f, want) {
			t.Errorf("Parse(%q) = %q, want %q", src, f.String(), want.String())
		}
	}
	bad := []string{"", "(", "p &", "<1> p", "<0,1> p", "<1,2>= p", "p q", "1p", "!"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseNumberLimit: grades and port indices are int32 in the
// interned records, so the parser takes numbers up to math.MaxInt32
// exactly and rejects larger ones with an error naming the limit.
func TestParseNumberLimit(t *testing.T) {
	f, err := Parse("<2147483647,1>=2147483647 q1")
	if err != nil {
		t.Fatal(err)
	}
	if d := f.(Diamond); d.Idx.I != 2147483647 || d.K != 2147483647 {
		t.Fatalf("parsed %+v", d)
	}
	for _, src := range []string{
		"<2147483648,1> q1",
		"<1,4294967297> q1",
		"<*,*>=4294967297 q1",
		"<*,*>=99999999999999999999 q1",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "limit 2147483647") {
			t.Errorf("Parse(%q): err = %v, want the limit 2147483647", src, err)
		}
	}
}

func TestModalDepthAndSize(t *testing.T) {
	f := And{
		L: Dia(star(1, 1), Dia(star(2, 2), Prop{Name: "p"})),
		R: Not{F: Dia(star(1, 2), Prop{Name: "q"})},
	}
	if ModalDepth(f) != 2 {
		t.Errorf("md = %d, want 2", ModalDepth(f))
	}
	if Size(f) != 7 {
		t.Errorf("size = %d, want 7", Size(f))
	}
	if ModalDepth(Prop{Name: "p"}) != 0 {
		t.Error("atomic depth should be 0")
	}
}

func TestSubformulas(t *testing.T) {
	f := And{L: Prop{Name: "p"}, R: Not{F: Prop{Name: "p"}}}
	subs := Subformulas(f)
	if len(subs) != 3 { // p, !p, p & !p — p deduplicated
		t.Errorf("|Σ| = %d, want 3", len(subs))
	}
}

func TestFragmentClassification(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"<*,*> p", "ML"},
		{"<*,*>=2 p", "GML"},
		{"<1,*> p", "MML"},
		{"<*,1>=2 p", "GMML"},
		{"p & q", "ML"},
	}
	for _, tc := range cases {
		if got := ClassifyFragment(MustParse(tc.src)).String(); got != tc.want {
			t.Errorf("fragment(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestEvalOnConcreteModel(t *testing.T) {
	// Model: 0 → 1, 0 → 2 under (∗,∗); p true at 1 and 2, q at 1 only.
	m := kripke.NewModel(3)
	alpha := star(0, 0)
	m.AddEdge(alpha, 0, 1)
	m.AddEdge(alpha, 0, 2)
	m.SetProp("p", 1)
	m.SetProp("p", 2)
	m.SetProp("q", 1)

	cases := []struct {
		src  string
		node int
		want bool
	}{
		{"<*,*> p", 0, true},
		{"<*,*>=2 p", 0, true},
		{"<*,*>=3 p", 0, false},
		{"<*,*> q", 0, true},
		{"<*,*>=2 q", 0, false},
		{"<*,*> p", 1, false}, // no successors
		{"[*,*] p", 0, true},
		{"[*,*] q", 0, false},
		{"[*,*] p", 1, true}, // vacuous
		{"!<*,*> (p & q)", 0, false},
		{"<*,*>=0 false", 0, true}, // ≥0 of anything
	}
	for _, tc := range cases {
		if got := Sat(m, tc.node, MustParse(tc.src)); got != tc.want {
			t.Errorf("Sat(%d, %q) = %v, want %v", tc.node, tc.src, got, tc.want)
		}
	}
	if ts := TruthSet(m, MustParse("p")); len(ts) != 2 || ts[0] != 1 || ts[1] != 2 {
		t.Errorf("TruthSet(p) = %v", ts)
	}
}

func TestEvalDegreePropsOnGraph(t *testing.T) {
	g := graph.Star(3)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	// "I am a leaf attached to the centre of a 3-star": q1 ∧ ⟨∗,∗⟩q3.
	f := MustParse("q1 & <*,*> q3")
	val := Eval(m, f)
	if val[0] {
		t.Error("centre satisfies leaf formula")
	}
	for v := 1; v <= 3; v++ {
		if !val[v] {
			t.Errorf("leaf %d fails leaf formula", v)
		}
	}
	// Counting: the centre has exactly 3 leaf neighbours.
	if !Sat(m, 0, MustParse("<*,*>=3 q1")) || Sat(m, 0, MustParse("<*,*>=4 q1")) {
		t.Error("graded counting wrong at centre")
	}
}

func TestSimplify(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"p & true", "p"},
		{"p & false", "false"},
		{"p | true", "true"},
		{"p | false", "p"},
		{"!!p", "p"},
		{"!true", "false"},
		{"<1,1> false", "false"},
		{"<1,1>=0 p", "true"},
		{"p & p", "p"},
		{"p | p", "p"},
	}
	for _, tc := range cases {
		got := Simplify(MustParse(tc.src))
		if !Equal(got, MustParse(tc.want)) {
			t.Errorf("Simplify(%q) = %q, want %q", tc.src, got.String(), tc.want)
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.Figure1Graph()
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantPP)
	for i := 0; i < 200; i++ {
		f := RandomFormula(rng, 4, 3, true)
		a, b := Eval(m, f), Eval(m, Simplify(f))
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("Simplify changed semantics of %q at %d", f.String(), v)
			}
		}
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := graph.Cycle(5)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantPP)
	for i := 0; i < 200; i++ {
		f := RandomFormula(rng, 4, 2, true)
		a, b := Eval(m, f), Eval(m, NNF(f))
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("NNF changed semantics of %q at %d", f.String(), v)
			}
		}
	}
}

func TestDegreeIs(t *testing.T) {
	g := graph.Path(3) // degrees 1,2,1
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	if !Sat(m, 1, DegreeIs(2, 2)) || Sat(m, 0, DegreeIs(2, 2)) {
		t.Error("DegreeIs(2) wrong")
	}
	// Degree-0 formula on a graph with an isolated node.
	iso := graph.MustNew(2, []graph.Edge{})
	mi := kripke.FromPorts(port.Canonical(iso), kripke.VariantMM)
	if !Sat(mi, 0, DegreeIs(0, 2)) {
		t.Error("isolated node fails DegreeIs(0)")
	}
	if Sat(m, 1, DegreeIs(0, 2)) {
		t.Error("degree-2 node satisfies DegreeIs(0)")
	}
}

func TestLabels(t *testing.T) {
	f := MustParse("<1,2> p & <*,1> q | <1,2> r")
	ls := Labels(f)
	if len(ls) != 2 {
		t.Errorf("labels = %v, want 2 distinct", ls)
	}
}

func BenchmarkEval(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	f := RandomFormula(rng, 8, 3, true)
	g := graph.Torus(8, 8)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantPP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(m, f)
	}
}
