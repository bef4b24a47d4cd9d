package logic

// intern_test.go pins the open-addressed Interner to the map-based
// reference in intern_ref_test.go: every construction sequence must give
// the same IDs, the same Len and the same Node records.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"weakmodels/internal/kripke"
)

// opGrades are the Dia grades the op decoder draws from: both ends of the
// degenerate range (0 is ⊤, 1 the plain diamond), small counts, and the
// int32 extremes the records must hold exactly.
var opGrades = []int{0, 1, 1, 2, 3, math.MaxInt32, -1}

// opIndices are the relation labels the op decoder draws from, star
// components included.
var opIndices = []kripke.Index{
	{}, {I: kripke.Star, J: 1}, {I: 2, J: kripke.Star}, {I: 1, J: 1}, {I: 3, J: 2}, {I: math.MaxInt32, J: 1},
}

// replayOps decodes data into a sequence of Interner constructions and
// runs it on in and ref side by side, failing at the first operation
// whose IDs differ. Children are picked from the IDs built so far —
// mostly recent ones, so the same subterm is rebuilt often.
func replayOps(t *testing.T, data []byte, in *Interner, ref *refInterner) {
	t.Helper()
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	built := []ID{in.Top()}
	if top := ref.Top(); built[0] != top {
		t.Fatalf("Top: ID %d, reference %d", built[0], top)
	}
	pick := func() ID {
		b := next()
		if b&1 == 0 && len(built) > 16 {
			return built[len(built)-1-(b>>1)%16]
		}
		return built[(b>>1|next()<<7)%len(built)]
	}
	picks := func() []ID {
		fs := make([]ID, next()%5)
		for i := range fs {
			fs[i] = pick()
		}
		return fs
	}
	for step := 0; pos < len(data); step++ {
		var got, want ID
		switch op := next() % 10; op {
		case 0:
			got, want = in.Top(), ref.Top()
		case 1:
			got, want = in.Bot(), ref.Bot()
		case 2:
			name := kripke.DegreeProp(1 + next()%6)
			got, want = in.Prop(name), ref.Prop(name)
		case 3:
			f := pick()
			got, want = in.Not(f), ref.Not(f)
		case 4:
			f, g := pick(), pick()
			got, want = in.And(f, g), ref.And(f, g)
		case 5:
			f, g := pick(), pick()
			got, want = in.Or(f, g), ref.Or(f, g)
		case 6:
			idx, k, f := opIndices[next()%len(opIndices)], opGrades[next()%len(opGrades)], pick()
			got, want = in.Dia(idx, k, f), ref.Dia(idx, k, f)
		case 7:
			idx, f := opIndices[next()%len(opIndices)], pick()
			got, want = in.Box(idx, f), ref.Box(idx, f)
		case 8:
			fs := picks()
			got, want = in.BigAnd(fs...), ref.BigAnd(fs...)
		case 9:
			fs := picks()
			got, want = in.BigOr(fs...), ref.BigOr(fs...)
		}
		if got != want {
			t.Fatalf("step %d: ID %d, reference %d", step, got, want)
		}
		built = append(built, got)
	}
	checkSameArena(t, in, ref)
}

// checkSameArena compares Len and every Node record.
func checkSameArena(t *testing.T, in *Interner, ref *refInterner) {
	t.Helper()
	if in.Len() != ref.Len() {
		t.Fatalf("Len %d, reference %d", in.Len(), ref.Len())
	}
	for i := ID(0); int(i) < ref.Len(); i++ {
		if got, want := in.Node(i), ref.Node(i); got != want {
			t.Fatalf("Node(%d) = %+v, reference %+v", i, got, want)
		}
	}
}

// TestInternerMatchesReference replays seeded random construction
// sequences long enough to regrow the table many times (a fresh table
// has minSlots slots).
func TestInternerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 60_000)
		rng.Read(data)
		in, ref := NewInterner(), newRefInterner()
		replayOps(t, data, in, ref)
		if grown := len(in.slots) / minSlots; grown < 64 {
			t.Fatalf("seed %d: table only grew to %d slots; the sequence is too short to test regrowth", seed, len(in.slots))
		}
	}
}

// TestInternerTagCollision interns two diamonds whose records share a
// tag, and so a home slot: the second must get its own ID, and each must
// find itself again, which random sequences rarely exercise.
func TestInternerTagCollision(t *testing.T) {
	seen := make(map[uint64]int)
	k1, k2 := -1, -1
	for k := 0; k1 < 0; k++ {
		tag := rec{op: OpDia, k: int32(k)}.hash()
		if prev, ok := seen[tag]; ok {
			k1, k2 = prev, k
		}
		seen[tag] = k
	}
	in := NewInterner()
	top := in.Top() // ID 0, the l of the records hashed above
	a := in.Dia(kripke.Index{}, k1, top)
	b := in.Dia(kripke.Index{}, k2, top)
	if a == b {
		t.Fatalf("grades %d and %d share a tag and interned to one ID %d", k1, k2, a)
	}
	if in.Dia(kripke.Index{}, k1, top) != a || in.Dia(kripke.Index{}, k2, top) != b || in.Len() != 3 {
		t.Fatalf("re-interning grades %d, %d did not return IDs %d, %d", k1, k2, a, b)
	}
}

// FuzzInternerMatchesReference decodes an operation sequence from the
// fuzz input and replays it on both interners.
func FuzzInternerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("interned formulas share every equal subterm"))
	seq := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(seq)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		replayOps(t, data, NewInterner(), newRefInterner())
	})
}

// TestRecordLayout pins the arena record at 24 bytes.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size != 24 {
		t.Fatalf("rec is %d bytes, want 24", size)
	}
}

// TestDiaRejectsWideNumbers: a grade or port index outside int32 would
// alias a narrower one in the records, so Dia refuses it.
func TestDiaRejectsWideNumbers(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits; nothing is outside int32")
	}
	wide := int(math.MaxInt32) + 1
	cases := []struct {
		name  string
		build func(in *Interner)
	}{
		{"grade", func(in *Interner) { in.Dia(kripke.Index{}, wide, in.Top()) }},
		{"grade<0", func(in *Interner) { in.Dia(kripke.Index{}, -wide-1, in.Top()) }},
		{"I", func(in *Interner) { in.Dia(kripke.Index{I: wide}, 1, in.Top()) }},
		{"J", func(in *Interner) { in.Dia(kripke.Index{J: wide}, 1, in.Top()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "outside int32") {
					t.Fatalf("recovered %q, want an outside-int32 panic", msg)
				}
			}()
			c.build(NewInterner())
		})
	}
}
