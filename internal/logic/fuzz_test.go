package logic

// FuzzParseFormula: any input Parse accepts must round-trip — the
// rendered form re-parses to a formula with the identical rendering and
// the identical interned ID. The canonical surface syntax is therefore a
// fixpoint of parse∘String, which is what every string-keyed consumer
// (journals, CLI flags, test fixtures) relies on.

import "testing"

func FuzzParseFormula(f *testing.F) {
	for _, seed := range []string{
		"true",
		"false",
		"q1",
		"!q2 & (q1 | true)",
		"<*,*> q1",
		"<1,2>=3 (q1 & !q2)",
		"[*,1] (q1 | <2,*>=2 q3)",
		"!(<*,*> q1 & [1,1] false)",
		"a_b2 | !true & <3,4> q9",
		// Numbers beyond int32 must be rejected, not truncated.
		"<1,1> true & !(<4294967297,1> true)",
		"<*,*> true & !(<*,*>=4294967297 true)",
		"<*,*>=4294967297 q4",
		"<*,*>=2147483648 q1",
		"<2147483647,2147483647>=2147483647 q1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		rendered := parsed.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form %q of accepted input %q does not re-parse: %v", rendered, src, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("print-parse not a fixpoint: %q → %q", rendered, got)
		}
		if !Equal(parsed, again) {
			t.Fatalf("re-parse of %q is not structurally equal", rendered)
		}
		in := NewInterner()
		if id1, id2 := in.Intern(parsed), in.Intern(again); id1 != id2 {
			t.Fatalf("re-parse of %q interned to a different ID (%d vs %d)", rendered, id1, id2)
		}
	})
}
