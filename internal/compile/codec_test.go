package compile

import (
	"math/rand"
	"reflect"
	"testing"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
	"weakmodels/internal/term"
)

// The reference codec: the term-tree encoder and the parse-into-maps step
// the template codec replaced. It defines the messages the compiled
// machine must keep producing byte for byte.

func termEncodeRestriction(c *compiled, vals []Tri, j int) machine.Message {
	slot := j
	tag := int64(j)
	if c.broadcast {
		slot = 1
		tag = -1
	}
	kids := []term.Term{term.Int(tag)}
	for _, idx := range c.dsets[slot] {
		kids = append(kids, term.Tuple(term.Int(int64(idx)), term.Int(int64(vals[idx]))))
	}
	return machine.EncodeTerm(term.Tuple(kids...))
}

// termDecoded is one parsed incoming message.
type termDecoded struct {
	tag  int // sender's out-port; -1 for broadcast; -2 for m0
	vals map[int]Tri
}

func termDecodeRestriction(m machine.Message) (termDecoded, error) {
	if m == machine.NoMessage {
		return termDecoded{tag: -2}, nil
	}
	t, err := term.Parse(m)
	if err != nil {
		return termDecoded{}, err
	}
	d := termDecoded{tag: int(t.At(0).IntVal()), vals: make(map[int]Tri, t.Len()-1)}
	for i := 1; i < t.Len(); i++ {
		pair := t.At(i)
		d.vals[int(pair.At(0).IntVal())] = Tri(pair.At(1).IntVal())
	}
	return d, nil
}

func termStep(c *compiled, old []Tri, inbox []machine.Message) []Tri {
	msgs := make([]termDecoded, len(inbox))
	for i, m := range inbox {
		d, err := termDecodeRestriction(m)
		if err != nil {
			panic(err)
		}
		msgs[i] = d
	}
	next := append([]Tri(nil), old...)
	for i, s := range c.subs {
		if old[i] != TriU {
			continue
		}
		switch x := s.(type) {
		case logic.Not:
			next[i] = triNot(next[c.children[i][0]])
		case logic.And:
			next[i] = triAnd(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Or:
			next[i] = triOr(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Diamond:
			child := c.children[i][0]
			if old[child] == TriU {
				next[i] = TriU
				continue
			}
			next[i] = termEvalDiamond(c, x, child, msgs)
		}
	}
	return next
}

func termEvalDiamond(c *compiled, d logic.Diamond, child int, msgs []termDecoded) Tri {
	switch c.variant {
	case kripke.VariantPP:
		i := d.Idx.I
		if i < 1 || i > len(msgs) {
			return TriFalse
		}
		m := msgs[i-1]
		return boolTri(m.tag == d.Idx.J && m.vals[child] == TriTrue)
	case kripke.VariantMP:
		count := 0
		for _, m := range msgs {
			if m.tag == d.Idx.J && m.vals[child] == TriTrue {
				count++
			}
		}
		return boolTri(count >= d.K)
	case kripke.VariantPM:
		i := d.Idx.I
		if i < 1 || i > len(msgs) {
			return TriFalse
		}
		return boolTri(msgs[i-1].vals[child] == TriTrue)
	default:
		count := 0
		for _, m := range msgs {
			if m.vals[child] == TriTrue {
				count++
			}
		}
		return boolTri(count >= d.K)
	}
}

// termReferenceMachine is MachineFromFormula with μ and δ replaced by the
// reference codec.
func termReferenceMachine(t testing.TB, f logic.Formula, delta int) machine.Machine {
	t.Helper()
	m, _, err := MachineFromFormula(f, delta)
	if err != nil {
		t.Fatalf("MachineFromFormula(%q): %v", f.String(), err)
	}
	c, err := newCompiled(f, delta)
	if err != nil {
		t.Fatal(err)
	}
	ref := *m.(*machine.Func)
	ref.SendFunc = func(s machine.State, port int) machine.Message {
		return termEncodeRestriction(c, s.(fmState).Vals, port)
	}
	ref.StepFunc = func(s machine.State, inbox []machine.Message) machine.State {
		next := termStep(c, s.(fmState).Vals, inbox)
		out := fmState{Vals: next}
		if next[c.root] != TriU {
			out.Done = true
			out.Out = outputOf(next[c.root])
		}
		return out
	}
	ref.ValidFunc = nil
	return &ref
}

// TestCompiledMatchesTermReference runs every variant on the suite graphs
// and a 2000-node random tree under both codecs and requires identical
// Results: outputs, final states, rounds, message bytes and traces.
func TestCompiledMatchesTermReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	graphs := append(suiteGraphs(), graph.RandomTree(2000, rand.New(rand.NewSource(1302))))
	variants := []kripke.Variant{
		kripke.VariantPP, kripke.VariantMP, kripke.VariantPM, kripke.VariantMM,
	}
	for _, g := range graphs {
		delta := maxInt(g.MaxDegree(), 3)
		numberings := []*port.Numbering{port.Canonical(g), port.Random(g, rng)}
		for _, variant := range variants {
			graded := variant == kripke.VariantMP || variant == kripke.VariantMM
			for trial := 0; trial < 4; trial++ {
				f := logic.RandomFormulaForVariant(rng, 3, 3, graded && trial%2 == 0, variant)
				m, _, err := MachineFromFormula(f, delta)
				if err != nil {
					t.Fatalf("MachineFromFormula(%q): %v", f.String(), err)
				}
				ref := termReferenceMachine(t, f, delta)
				for _, p := range numberings {
					opts := engine.Options{RecordTrace: true}
					got, err := engine.Run(m, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := engine.Run(ref, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v formula %q on %v: template codec Result differs from the term reference",
							variant, f.String(), g)
					}
				}
			}
		}
	}
}

// codecFormulas has one formula per variant whose D sets are non-trivial.
var codecFormulas = []string{
	"<1,2> (q1 & <3,1> q2) | <2,2> q3",    // PP
	"<*,2>=2 (q1 | <*,1> q2) & <*,3> q3",  // MP
	"<1,*> (q2 & <2,*> q1) | <3,*> !q3",   // PM
	"<*,*>=2 (q1 | <*,*> q2) & <*,*> !q3", // MM
}

// codecs compiles codecFormulas at Δ = 3, checking each lands in the
// variant its position names.
func codecs(t testing.TB) []*compiled {
	t.Helper()
	want := []kripke.Variant{kripke.VariantPP, kripke.VariantMP, kripke.VariantPM, kripke.VariantMM}
	out := make([]*compiled, len(codecFormulas))
	for i, src := range codecFormulas {
		c, err := newCompiled(logic.MustParse(src), 3)
		if err != nil {
			t.Fatal(err)
		}
		if c.variant != want[i] {
			t.Fatalf("%q compiles in %v, want %v", src, c.variant, want[i])
		}
		out[i] = c
	}
	return out
}

// selfMessages returns messages the codec sends: every slot, under a few
// seeded valuations.
func selfMessages(c *compiled, rng *rand.Rand) []machine.Message {
	var out []machine.Message
	for trial := 0; trial < 3; trial++ {
		vals := make([]Tri, len(c.subs))
		for i := range vals {
			vals[i] = Tri(rng.Intn(3))
		}
		for j := 1; j <= c.delta; j++ {
			out = append(out, c.encodeRestriction(vals, j))
		}
	}
	return out
}

func TestEncodeRestrictionMatchesTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	for _, c := range codecs(t) {
		for trial := 0; trial < 50; trial++ {
			vals := make([]Tri, len(c.subs))
			for i := range vals {
				vals[i] = Tri(rng.Intn(3))
			}
			for j := 1; j <= c.delta; j++ {
				got, want := c.encodeRestriction(vals, j), termEncodeRestriction(c, vals, j)
				if got != want {
					t.Fatalf("%v slot %d: template encodes %q, term encodes %q", c.variant, j, got, want)
				}
				if c.slotOf(got) == 0 {
					t.Fatalf("%v: validator rejects self-produced %q", c.variant, got)
				}
			}
		}
	}
}

// FuzzRestrictionCodec checks the validator against term.Parse: an
// accepted string parses to exactly the (tag, idx, value) entries the
// template reading gives, and a single-byte change outside the value
// digits is rejected — unless, for per-port variants, it rewrites the tag
// into another slot's tag and the result fills that slot's template.
func FuzzRestrictionCodec(f *testing.F) {
	cs := codecs(f)
	rng := rand.New(rand.NewSource(1304))
	for which, c := range cs {
		for _, m := range selfMessages(c, rng) {
			f.Add(uint8(which), m)
		}
	}
	f.Add(uint8(3), "t(-1,t( ,0),t(1,2))")
	f.Add(uint8(0), "t(01)")
	f.Fuzz(func(t *testing.T, which uint8, msg string) {
		c := cs[int(which)%len(cs)]
		slot := c.slotOf(msg)
		if slot == 0 {
			return
		}
		checkTemplateReading(t, c, slot, msg)
		tmpl := &c.tmpl[slot]
		digit := make(map[int]bool, len(tmpl.digits))
		for _, off := range tmpl.digits {
			digit[off] = true
		}
		buf := []byte(msg)
		for p := range buf {
			if digit[p] {
				continue
			}
			orig := buf[p]
			for b := 0; b < 256; b++ {
				if byte(b) == orig {
					continue
				}
				buf[p] = byte(b)
				mut := string(buf)
				if s := c.slotOf(mut); s != 0 {
					if c.broadcast || s == slot {
						t.Fatalf("%v: %q accepted after changing byte %d of %q", c.variant, mut, p, msg)
					}
					checkTemplateReading(t, c, s, mut)
				}
			}
			buf[p] = orig
		}
	})
}

// checkTemplateReading requires term.Parse to read msg as slot's tag
// followed by the slot's (idx, digit) entries.
func checkTemplateReading(t *testing.T, c *compiled, slot int, msg string) {
	t.Helper()
	tm, err := term.Parse(msg)
	if err != nil {
		t.Fatalf("%v: validator accepts %q but term.Parse fails: %v", c.variant, msg, err)
	}
	wantTag := int64(slot)
	if c.broadcast {
		wantTag = -1
	}
	tmpl := &c.tmpl[slot]
	if tm.Kind() != term.KindTuple || tm.Len() != len(tmpl.digits)+1 || tm.At(0).IntVal() != wantTag {
		t.Fatalf("%v: %q parses to %v, want tag %d and %d entries", c.variant, msg, tm, wantTag, len(tmpl.digits))
	}
	for k, off := range tmpl.digits {
		pair := tm.At(k + 1)
		if pair.At(0).IntVal() != int64(c.dsets[slot][k]) || pair.At(1).IntVal() != int64(msg[off]-'0') {
			t.Fatalf("%v: %q entry %d parses to %v, template reads (%d,%c)",
				c.variant, msg, k, pair, c.dsets[slot][k], msg[off])
		}
	}
}

// TestCompiledByzantineAsync is the regression for corrupted payloads:
// without a message guard the compiled machine panicked on the first
// garbled message. The run must complete, for a single formula and for a
// tuple of two.
func TestCompiledByzantineAsync(t *testing.T) {
	g, err := graph.PreferentialAttachment(500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := port.Canonical(g)
	delta := g.MaxDegree()
	single, _, err := MachineFromFormula(logic.MustParse("<*,*>=2 (<*,*> q1)"), delta)
	if err != nil {
		t.Fatal(err)
	}
	tuple, _, err := MachineFromFormulas(map[machine.Output]logic.Formula{
		"a": logic.MustParse("<*,*>=2 (<*,*> q1)"),
		"b": logic.MustParse("<*,*> (q2 & <*,*> q3)"),
	}, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []machine.Machine{single, tuple} {
		sched, err := schedule.Parse("random:0.3", 1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.Parse("byzantine:0.3", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(m, p, engine.Options{
			Executor: engine.ExecutorAsync, Schedule: sched, Fault: plan,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Corruptions == 0 {
			t.Fatalf("%s: the plan corrupted nothing; the regression is not exercised", m.Name())
		}
	}
}

// TestTupleGuard pins the tuple machine's alphabet: one part per formula,
// each m0 or valid for its component.
func TestTupleGuard(t *testing.T) {
	m, _, err := MachineFromFormulas(map[machine.Output]logic.Formula{
		"a": logic.MustParse("<*,*> q1"),
		"b": logic.MustParse("<*,*> q2"),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := m.(machine.MessageGuard)
	good := m.Send(m.Init(2), 1)
	for msg, want := range map[machine.Message]bool{
		good:                              true,
		machine.EncodeTermStrings("", ""): true,
		machine.EncodeTermStrings("t(-1,t(0,1))", ""): true,
		machine.EncodeTermStrings("t(-1,t(0,3))", ""): false,
		machine.EncodeTermStrings("t(-1,t(0,1))"):     false,
		machine.EncodeTermStrings("", "", ""):         false,
		machine.EncodeTerm(term.Tuple(term.Int(1))):   false,
		good[:len(good)-1]:                            false,
	} {
		if got := g.ValidMessage(msg); got != want {
			t.Errorf("ValidMessage(%q) = %v, want %v", msg, got, want)
		}
	}
}
