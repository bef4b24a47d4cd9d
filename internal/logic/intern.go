package logic

// intern.go is the hash-consed formula DAG behind the fast evaluation
// path. An Interner deduplicates structurally equal subformulas into a
// dense-id arena: building the same subformula twice returns the same ID,
// so structural equality is integer equality, memo tables are plain
// slices indexed by ID, and the shared subformulas ubiquitous in compiled
// and characteristic formulas exist exactly once.
//
// IDs are assigned in construction order, so every node's children have
// strictly smaller IDs than the node itself — the arena IS a topological
// order, and every traversal in the package is an iterative forward (or
// marked-backward) pass instead of a recursion over interface values.

import (
	"fmt"

	"weakmodels/internal/kripke"
)

// ID is a dense interned-formula identifier, valid for the Interner that
// produced it. Children always have smaller IDs than their parents.
type ID int32

// NoID is the invalid ID.
const NoID ID = -1

// Op is the connective of an interned node.
type Op uint8

// The seven node kinds, mirroring the Formula implementations.
const (
	OpTop Op = iota
	OpBot
	OpProp
	OpNot
	OpAnd
	OpOr
	OpDia
)

// Node is the immutable record of one interned subformula.
type Node struct {
	Op   Op
	L, R ID           // Not/Dia child in L; And/Or children in L, R
	Idx  kripke.Index // Dia: relation label
	K    int32        // Dia: grade
	Prop string       // Prop: proposition name
}

// rec is the arena record of one interned node: 24 bytes and no
// pointers, so the arena is one flat allocation the garbage collector
// never scans. Not/Dia keep their child in l and And/Or their children
// in l and r; Dia keeps its relation label in i, j and its grade in k;
// an OpProp record keeps its name's index into props in l.
type rec struct {
	op      Op
	l, r    ID
	i, j, k int32
}

// hash mixes a record into the 32-bit tag stored beside its ID; the tag's
// low bits are also its home slot, so the table regrows from the slots
// alone. The pre-mix is injective on the fields Not/And/Or use and
// fmix64 (MurmurHash3's finaliser) is a bijection, so records share a tag
// only by its truncation to 32 bits.
func (x rec) hash() uint64 {
	h := uint64(uint32(x.l)) | uint64(uint32(x.r))<<32
	h ^= (uint64(uint32(x.i)) | uint64(uint32(x.j))<<32) * 0x9e3779b97f4a7c15
	h ^= (uint64(uint32(x.k))<<8 | uint64(x.op)) * 0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h >> 32
}

// Interner owns a hash-consed formula arena. The zero value is not ready;
// use NewInterner. An Interner is not safe for concurrent mutation;
// concurrent reads (Node, Len, Formula) are fine once built.
//
// Deduplication goes through an open-addressing table of uint64 slots,
// the idiom of the bisim refiner's signature table: each slot holds a
// 32-bit hash tag above id+1 (0 = empty), probing is linear and the load
// factor stays at most ½. A record is compared only when its tag
// matches. Propositions dedup through propIDs and never enter the table.
type Interner struct {
	recs    []rec
	props   []string
	propIDs map[string]ID

	slots []uint64
	mask  uint64
}

// minSlots is the table size of a fresh Interner.
const minSlots = 64

// NewInterner returns an empty arena.
func NewInterner() *Interner {
	return &Interner{
		propIDs: make(map[string]ID),
		slots:   make([]uint64, minSlots),
		mask:    minSlots - 1,
	}
}

// Len returns the number of distinct interned subformulas.
func (in *Interner) Len() int { return len(in.recs) }

// Node returns the record of id. The ID must come from this Interner.
func (in *Interner) Node(id ID) Node {
	x := in.recs[id]
	if x.op == OpProp {
		return Node{Op: OpProp, Prop: in.props[x.l]}
	}
	return Node{Op: x.op, L: x.l, R: x.r, Idx: kripke.Index{I: int(x.i), J: int(x.j)}, K: x.k}
}

// probe looks x, whose tag is tag, up in the table. It returns the ID of
// the equal record, or NoID and the empty slot where x belongs.
//
//weakvet:noalloc
func (in *Interner) probe(x rec, tag uint64) (ID, uint64) {
	for s := tag & in.mask; ; s = (s + 1) & in.mask {
		e := in.slots[s]
		if e == 0 {
			return NoID, s
		}
		if e>>32 == tag {
			if id := ID(uint32(e) - 1); in.recs[id] == x {
				return id, s
			}
		}
	}
}

func (in *Interner) put(x rec) ID {
	tag := x.hash()
	id, s := in.probe(x, tag)
	if id != NoID {
		return id
	}
	id = ID(len(in.recs))
	in.recs = append(in.recs, x)
	in.slots[s] = tag<<32 | uint64(id+1)
	if used := len(in.recs) - len(in.props); 2*used > len(in.slots) {
		in.grow()
	}
	return id
}

// grow doubles the table. Each entry's tag holds its home slot, so the
// entries move without touching the records, and scanning the old table
// in order writes the new one mostly in two ascending runs.
func (in *Interner) grow() {
	old := in.slots
	in.slots = make([]uint64, 2*len(old))
	in.mask = uint64(len(in.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		s := e >> 32 & in.mask
		for in.slots[s] != 0 {
			s = (s + 1) & in.mask
		}
		in.slots[s] = e
	}
}

// narrow converts a Dia grade or port index to its int32 record field.
// It panics on a value that would not survive the conversion: two
// formulas differing only there would otherwise intern to one node.
// Parse rejects such numbers, so reaching the panic is programmer misuse.
func narrow(x int, what string) int32 {
	if x != int(int32(x)) {
		panic(fmt.Sprintf("logic: diamond %s %d outside int32", what, x))
	}
	return int32(x)
}

// Top interns ⊤.
func (in *Interner) Top() ID { return in.put(rec{op: OpTop}) }

// Bot interns ⊥.
func (in *Interner) Bot() ID { return in.put(rec{op: OpBot}) }

// Prop interns an atomic proposition.
func (in *Interner) Prop(name string) ID {
	if id, ok := in.propIDs[name]; ok {
		return id
	}
	id := ID(len(in.recs))
	in.recs = append(in.recs, rec{op: OpProp, l: ID(len(in.props))})
	in.props = append(in.props, name)
	in.propIDs[name] = id
	return id
}

// Not interns ¬f.
func (in *Interner) Not(f ID) ID {
	return in.put(rec{op: OpNot, l: f})
}

// And interns f ∧ g.
func (in *Interner) And(f, g ID) ID {
	return in.put(rec{op: OpAnd, l: f, r: g})
}

// Or interns f ∨ g.
func (in *Interner) Or(f, g ID) ID {
	return in.put(rec{op: OpOr, l: f, r: g})
}

// Dia interns ⟨α⟩≥k f. It panics if k or a port index of idx does not
// fit in int32.
func (in *Interner) Dia(idx kripke.Index, k int, f ID) ID {
	return in.put(rec{op: OpDia, l: f,
		i: narrow(idx.I, "port index"), j: narrow(idx.J, "port index"), k: narrow(k, "grade")})
}

// Box interns ¬⟨α⟩¬f, the same desugaring as the AST-level Box.
func (in *Interner) Box(idx kripke.Index, f ID) ID {
	return in.Not(in.Dia(idx, 1, in.Not(f)))
}

// BigAnd folds a left-associated conjunction; empty is ⊤ — the interned
// mirror of the AST-level BigAnd, so renderings agree.
func (in *Interner) BigAnd(fs ...ID) ID {
	if len(fs) == 0 {
		return in.Top()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = in.And(out, f)
	}
	return out
}

// BigOr folds a left-associated disjunction; empty is ⊥.
func (in *Interner) BigOr(fs ...ID) ID {
	if len(fs) == 0 {
		return in.Bot()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = in.Or(out, f)
	}
	return out
}

// Intern hash-conses an AST formula into the arena. Structurally equal
// formulas — however built — intern to the same ID.
func (in *Interner) Intern(f Formula) ID {
	switch x := f.(type) {
	case Top:
		return in.Top()
	case Bot:
		return in.Bot()
	case Prop:
		return in.Prop(x.Name)
	case Not:
		return in.Not(in.Intern(x.F))
	case And:
		return in.And(in.Intern(x.L), in.Intern(x.R))
	case Or:
		return in.Or(in.Intern(x.L), in.Intern(x.R))
	case Diamond:
		return in.Dia(x.Idx, x.K, in.Intern(x.F))
	default:
		panic(fmt.Sprintf("logic: unknown formula %T", f))
	}
}

// Formula reconstructs the AST of id. Shared nodes become shared Formula
// interface values, so the reconstruction is linear in the DAG — but a
// subsequent String() renders the unfolded tree, which can be much
// larger; render only small formulas.
func (in *Interner) Formula(id ID) Formula {
	memo := make([]Formula, id+1)
	for i := ID(0); i <= id; i++ {
		switch x := in.recs[i]; x.op {
		case OpTop:
			memo[i] = Top{}
		case OpBot:
			memo[i] = Bot{}
		case OpProp:
			memo[i] = Prop{Name: in.props[x.l]}
		case OpNot:
			memo[i] = Not{F: memo[x.l]}
		case OpAnd:
			memo[i] = And{L: memo[x.l], R: memo[x.r]}
		case OpOr:
			memo[i] = Or{L: memo[x.l], R: memo[x.r]}
		case OpDia:
			memo[i] = Diamond{Idx: kripke.Index{I: int(x.i), J: int(x.j)}, K: int(x.k), F: memo[x.l]}
		}
	}
	return memo[id]
}

// String renders id via AST reconstruction. For diagnostics and small
// formulas only: rendering unfolds the DAG into a tree.
func (in *Interner) String(id ID) string { return in.Formula(id).String() }

// ModalDepthID returns md(id) with one forward pass over the arena
// prefix — no recursion, so deeply shared DAGs stay linear.
func (in *Interner) ModalDepthID(id ID) int {
	depth := make([]int32, id+1)
	for i := ID(0); i <= id; i++ {
		switch x := in.recs[i]; x.op {
		case OpNot:
			depth[i] = depth[x.l]
		case OpAnd, OpOr:
			depth[i] = max(depth[x.l], depth[x.r])
		case OpDia:
			depth[i] = depth[x.l] + 1
		}
	}
	return int(depth[id])
}
