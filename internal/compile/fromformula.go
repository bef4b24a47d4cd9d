// Package compile implements Theorem 2 of the paper in both directions:
//
//   - MachineFromFormula turns a modal formula into a local algorithm of the
//     matching class that evaluates the formula on K_{a,b}(G,p): the machine
//     state assigns each subformula a value in {0, 1, U}, messages carry the
//     restriction of that assignment to the subformulas under diamonds
//     (the sets D_j / D / D′ of the proof), and the transition function is
//     exactly the clauses (δ∧), (δ¬), (δ◇) and their variants. The machine
//     halts after md(ψ) rounds with output "1" exactly on ‖ψ‖.
//
//   - FormulaFromMachine unfolds a machine's reachable configuration space
//     into the formula families ϕ_{z,t}, ϑ_{m,j,t}, χ_{m,i,j,t} of Tables 4
//     and 5, for each of the four Kripke variants, yielding for every output
//     value y a formula that holds exactly at the nodes outputting y.
//
// The correspondence of Table 3 — formula ↔ algorithm, modal depth ↔
// running time — is exercised end-to-end by this package's tests.
package compile

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
)

// Tri is the three-valued truth domain {0, 1, U} of the Theorem 2 proof.
type Tri int8

// The three truth values.
const (
	TriFalse Tri = 0
	TriTrue  Tri = 1
	TriU     Tri = 2
)

// VariantForFormula infers the unique Kripke variant whose relation
// signature covers every label of f, or fails when labels mix regimes.
func VariantForFormula(f logic.Formula) (kripke.Variant, error) {
	labels := logic.Labels(f)
	if len(labels) == 0 {
		return kripke.VariantMM, nil // propositional: weakest regime suffices
	}
	iConcrete, iStar, jConcrete, jStar := false, false, false, false
	for _, l := range labels {
		if l.I == kripke.Star {
			iStar = true
		} else {
			iConcrete = true
		}
		if l.J == kripke.Star {
			jStar = true
		} else {
			jConcrete = true
		}
	}
	if (iConcrete && iStar) || (jConcrete && jStar) {
		return 0, fmt.Errorf("compile: formula mixes concrete and ∗ indices: %v", labels)
	}
	return kripke.VariantForRecvSend(iConcrete, jConcrete), nil
}

// compiled is the static structure shared by all nodes running the
// compiled machine: the subformula closure in evaluation order.
type compiled struct {
	// subs in ascending Size order, so children precede parents.
	subs []logic.Formula
	// index by rendered form.
	index map[string]int
	// root is the index of ψ itself.
	root int
	// children[i] lists child indices of subs[i].
	children [][]int
	delta    int
	variant  kripke.Variant
	graded   bool
	// broadcast is set for the variants whose messages ignore the out-port.
	broadcast bool
	// dsets[j] (1-based j; index 0 unused) lists subformula indices sent to
	// port j: D_j for per-port variants. For broadcast variants dsets[1]
	// holds D (all ports share it).
	dsets [][]int
	// tmpl[j] is the message template of slot j, parallel to dsets.
	tmpl []template
	// diaOff[i], for a diamond subs[i], is the byte offset of its child's
	// value digit in the template of the slot the diamond reads: Idx.J for
	// per-port variants, 1 for broadcast ones.
	diaOff []int
}

// template is the message of one D-set slot with every value set to 0.
// Values are single digits (Tri ∈ {0,1,2}), so every message of the slot
// has the template's length and fixed bytes and differs from it only at
// the digit offsets.
type template struct {
	// bytes is term.Tuple(Int(tag), Tuple(Int(idx), Int(0))…).Encode():
	// t(tag,t(idx,0),…), entries in ascending subformula index.
	bytes string
	// digits[k] is the offset of the value digit of the k-th D-set entry.
	digits []int
	// head is the prefix "t(tag," that tells the slots of a per-port
	// variant apart.
	head string
}

func newTemplate(tag int, dset []int) template {
	var b strings.Builder
	b.WriteString("t(")
	b.WriteString(strconv.Itoa(tag))
	t := template{head: b.String() + ",", digits: make([]int, len(dset))}
	for k, idx := range dset {
		b.WriteString(",t(")
		b.WriteString(strconv.Itoa(idx))
		b.WriteByte(',')
		t.digits[k] = b.Len()
		b.WriteString("0)")
	}
	b.WriteByte(')')
	t.bytes = b.String()
	return t
}

// fmState is the per-node state: one Tri per subformula. It renders
// deterministically under %#v (needed by FormulaFromMachine round trips).
type fmState struct {
	Vals []Tri
	Done bool
	Out  machine.Output
}

func newCompiled(f logic.Formula, delta int) (*compiled, error) {
	variant, err := VariantForFormula(f)
	if err != nil {
		return nil, err
	}
	fragment := logic.ClassifyFragment(f)
	if fragment.Graded && (variant == kripke.VariantPP || variant == kripke.VariantPM) {
		return nil, fmt.Errorf(
			"compile: graded diamonds with concrete in-ports are outside the Theorem 2 correspondence (fragment %v on %v)",
			fragment, variant)
	}
	subs := logic.Subformulas(f)
	sort.Slice(subs, func(a, b int) bool {
		sa, sb := logic.Size(subs[a]), logic.Size(subs[b])
		if sa != sb {
			return sa < sb
		}
		return subs[a].String() < subs[b].String()
	})
	c := &compiled{
		subs:      subs,
		index:     make(map[string]int, len(subs)),
		delta:     delta,
		variant:   variant,
		graded:    fragment.Graded,
		broadcast: variant == kripke.VariantPM || variant == kripke.VariantMM,
	}
	for i, s := range subs {
		c.index[s.String()] = i
	}
	c.root = c.index[f.String()]
	c.children = make([][]int, len(subs))
	for i, s := range subs {
		switch x := s.(type) {
		case logic.Not:
			c.children[i] = []int{c.index[x.F.String()]}
		case logic.And:
			c.children[i] = []int{c.index[x.L.String()], c.index[x.R.String()]}
		case logic.Or:
			c.children[i] = []int{c.index[x.L.String()], c.index[x.R.String()]}
		case logic.Diamond:
			c.children[i] = []int{c.index[x.F.String()]}
		}
	}
	// Build the D sets.
	if c.broadcast {
		c.dsets = make([][]int, 2)
	} else {
		c.dsets = make([][]int, delta+1)
	}
	seen := make(map[[2]int]bool)
	for _, s := range subs {
		d, ok := s.(logic.Diamond)
		if !ok {
			continue
		}
		child := c.index[d.F.String()]
		if c.broadcast {
			if !seen[[2]int{1, child}] {
				seen[[2]int{1, child}] = true
				c.dsets[1] = append(c.dsets[1], child)
			}
			continue
		}
		j := d.Idx.J
		if j < 1 || j > delta {
			return nil, fmt.Errorf("compile: out-port %d outside [1,%d] in %v", j, delta, s)
		}
		if !seen[[2]int{j, child}] {
			seen[[2]int{j, child}] = true
			c.dsets[j] = append(c.dsets[j], child)
		}
	}
	for j := range c.dsets {
		sort.Ints(c.dsets[j])
	}
	// One template per slot, tagged with the out-port (−1 for broadcast),
	// and each diamond's digit offset in the slot it reads.
	c.tmpl = make([]template, len(c.dsets))
	for j := 1; j < len(c.dsets); j++ {
		tag := j
		if c.broadcast {
			tag = -1
		}
		c.tmpl[j] = newTemplate(tag, c.dsets[j])
	}
	c.diaOff = make([]int, len(subs))
	for i, s := range subs {
		d, ok := s.(logic.Diamond)
		if !ok {
			continue
		}
		slot := c.diamondSlot(d)
		k := slices.Index(c.dsets[slot], c.children[i][0])
		c.diaOff[i] = c.tmpl[slot].digits[k]
	}
	return c, nil
}

// diamondSlot is the D-set slot whose messages a diamond reads.
func (c *compiled) diamondSlot(d logic.Diamond) int {
	if c.broadcast {
		return 1
	}
	return d.Idx.J
}

// initVals evaluates all modal-depth-0 subformulas for a node of the given
// degree; diamonds start undefined.
func (c *compiled) initVals(deg int) []Tri {
	vals := make([]Tri, len(c.subs))
	for i, s := range c.subs {
		switch x := s.(type) {
		case logic.Top:
			vals[i] = TriTrue
		case logic.Bot:
			vals[i] = TriFalse
		case logic.Prop:
			vals[i] = TriFalse
			if deg >= 1 && x.Name == kripke.DegreeProp(deg) {
				vals[i] = TriTrue
			}
		case logic.Not:
			vals[i] = triNot(vals[c.children[i][0]])
		case logic.And:
			vals[i] = triAnd(vals[c.children[i][0]], vals[c.children[i][1]])
		case logic.Or:
			vals[i] = triOr(vals[c.children[i][0]], vals[c.children[i][1]])
		case logic.Diamond:
			vals[i] = TriU
		}
	}
	return vals
}

func triNot(a Tri) Tri {
	switch a {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriU
	}
}

func triAnd(a, b Tri) Tri {
	// The proof's clause (δ∧): strictness in U.
	if a == TriU || b == TriU {
		return TriU
	}
	if a == TriTrue && b == TriTrue {
		return TriTrue
	}
	return TriFalse
}

func triOr(a, b Tri) Tri {
	if a == TriU || b == TriU {
		return TriU
	}
	if a == TriTrue || b == TriTrue {
		return TriTrue
	}
	return TriFalse
}

// encodeRestriction builds the message of the proof: the restriction of the
// assignment to the D set for port j, tagged with j for per-port variants
// (tag −1 for broadcast). The format is t(tag, t(idx,val), ...), with
// entries in ascending subformula index — canonical and injective. It is
// the slot's template with the values written in.
func (c *compiled) encodeRestriction(vals []Tri, j int) machine.Message {
	slot := j
	if c.broadcast {
		slot = 1
	}
	t := &c.tmpl[slot]
	var b strings.Builder
	b.Grow(len(t.bytes))
	prev := 0
	for k, off := range t.digits {
		b.WriteString(t.bytes[prev:off])
		b.WriteByte('0' + byte(vals[c.dsets[slot][k]]))
		prev = off + 1
	}
	b.WriteString(t.bytes[prev:])
	return b.String()
}

// slotOf returns the slot whose template m fills — same length, same
// fixed bytes, a digit in 0–2 at every value offset — or 0 when m is not
// a message the machine can send (m0 included).
//
//weakvet:noalloc
func (c *compiled) slotOf(m machine.Message) int {
	slot := 1
	if !c.broadcast {
		// Per-port tags are t(j,… with 1 ≤ j ≤ Δ; the byte comparison
		// below rejects non-canonical spellings such as leading zeros.
		if len(m) < 3 || m[0] != 't' || m[1] != '(' {
			return 0
		}
		slot = 0
		for i := 2; i < len(m) && m[i] >= '0' && m[i] <= '9'; i++ {
			slot = slot*10 + int(m[i]-'0')
			if slot >= len(c.tmpl) {
				return 0
			}
		}
		if slot == 0 {
			return 0
		}
	}
	t := &c.tmpl[slot]
	if len(m) != len(t.bytes) {
		return 0
	}
	prev := 0
	for _, off := range t.digits {
		if m[prev:off] != t.bytes[prev:off] || m[off] < '0' || m[off] > '2' {
			return 0
		}
		prev = off + 1
	}
	if m[prev:] != t.bytes[prev:] {
		return 0
	}
	return slot
}

// MachineFromFormula compiles ψ into a local algorithm per Theorem 2. The
// machine's class matches the formula's fragment and variant:
//
//	K₊,₊ → Vector (VV),  K₋,₊ graded → Multiset (MV), ungraded → Set (SV),
//	K₊,₋ → Broadcast (VB), K₋,₋ graded → MB, ungraded → SB.
//
// Its running time is exactly md(ψ) rounds and its output is "1" at node v
// iff K_{a,b}(G,p), v ⊨ ψ.
func MachineFromFormula(f logic.Formula, delta int) (machine.Machine, kripke.Variant, error) {
	c, err := newCompiled(f, delta)
	if err != nil {
		return nil, 0, err
	}
	var class machine.Class
	switch c.variant {
	case kripke.VariantPP:
		class = machine.ClassVV
	case kripke.VariantMP:
		if c.graded {
			class = machine.ClassMV
		} else {
			class = machine.ClassSV
		}
	case kripke.VariantPM:
		class = machine.ClassVB
	case kripke.VariantMM:
		if c.graded {
			class = machine.ClassMB
		} else {
			class = machine.ClassSB
		}
	}
	m := &machine.Func{
		MachineName:  fmt.Sprintf("compiled[%s]", f.String()),
		MachineClass: class,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			s := fmState{Vals: c.initVals(deg)}
			if s.Vals[c.root] != TriU {
				s.Done = true
				s.Out = outputOf(s.Vals[c.root])
			}
			return s
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(fmState)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, port int) machine.Message {
			return c.encodeRestriction(s.(fmState).Vals, port)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			next := c.step(s.(fmState).Vals, inbox)
			out := fmState{Vals: next}
			if next[c.root] != TriU {
				out.Done = true
				out.Out = outputOf(next[c.root])
			}
			return out
		},
		// Corrupted payloads degrade to m0 before δ sees them.
		ValidFunc: func(m machine.Message) bool { return c.slotOf(m) != 0 },
	}
	return m, c.variant, nil
}

func outputOf(v Tri) machine.Output {
	if v == TriTrue {
		return "1"
	}
	return "0"
}

// step implements the transition clauses (δ∧), (δ¬) and the four (δ◇)
// variants.
func (c *compiled) step(old []Tri, inbox []machine.Message) []Tri {
	for _, m := range inbox {
		if m != machine.NoMessage && c.slotOf(m) == 0 {
			// Messages are self-produced, or guarded to m0 under
			// corruption; malformed ⇒ bug.
			panic(fmt.Sprintf("compile: bad message %q", m))
		}
	}
	next := slices.Clone(old)
	for i, s := range c.subs {
		if old[i] != TriU {
			continue // clause (a): settled values persist
		}
		switch x := s.(type) {
		case logic.Not:
			next[i] = triNot(next[c.children[i][0]])
		case logic.And:
			next[i] = triAnd(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Or:
			next[i] = triOr(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Diamond:
			if old[c.children[i][0]] == TriU {
				next[i] = TriU // gate: child not yet evaluated anywhere
				continue
			}
			next[i] = c.evalDiamond(x, c.diaOff[i], inbox)
		}
	}
	return next
}

// carries reports whether the valid message m belongs to slot and holds 1
// at the digit offset off.
func (c *compiled) carries(m machine.Message, slot, off int) bool {
	if m == machine.NoMessage {
		return false
	}
	if !c.broadcast && !strings.HasPrefix(m, c.tmpl[slot].head) {
		return false
	}
	return m[off] == '1'
}

// evalDiamond applies the variant-specific clause (δ◇); off is the offset
// of the child's value digit in the slot the diamond reads.
func (c *compiled) evalDiamond(d logic.Diamond, off int, inbox []machine.Message) Tri {
	slot := c.diamondSlot(d)
	switch c.variant {
	case kripke.VariantPP, kripke.VariantPM:
		// ⟨(i,j)⟩ϑ: the message at in-port i must carry (1, j);
		// ⟨(i,∗)⟩ϑ: the broadcast message at in-port i carries 1.
		i := d.Idx.I
		if i < 1 || i > len(inbox) {
			return TriFalse
		}
		return boolTri(c.carries(inbox[i-1], slot, off))
	case kripke.VariantMP, kripke.VariantMM:
		// ⟨(∗,j)⟩≥k ϑ: count messages tagged j carrying 1;
		// ⟨(∗,∗)⟩≥k ϑ: count messages carrying 1.
		count := 0
		for _, m := range inbox {
			if c.carries(m, slot, off) {
				count++
			}
		}
		return boolTri(count >= d.K)
	default:
		panic("compile: unknown variant")
	}
}

func boolTri(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}
