package logic

// intern_ref_test.go keeps the map-based interner that the open-addressed
// table replaced, as the reference the oracle tests compare against: a
// Go map over a string-carrying key, IDs in construction order. It is the
// old implementation minus its int32 truncation (the key holds the full
// int values), so a difference from Interner is a table bug, never a
// shared one.

import (
	"weakmodels/internal/kripke"
)

type refKey struct {
	op      Op
	l, r    ID
	i, j, k int
	prop    string
}

type refInterner struct {
	nodes []Node
	ids   map[refKey]ID
}

func newRefInterner() *refInterner {
	return &refInterner{ids: make(map[refKey]ID)}
}

func (in *refInterner) Len() int        { return len(in.nodes) }
func (in *refInterner) Node(id ID) Node { return in.nodes[id] }

func (in *refInterner) put(k refKey, n Node) ID {
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := ID(len(in.nodes))
	in.nodes = append(in.nodes, n)
	in.ids[k] = id
	return id
}

func (in *refInterner) Top() ID { return in.put(refKey{op: OpTop}, Node{Op: OpTop}) }
func (in *refInterner) Bot() ID { return in.put(refKey{op: OpBot}, Node{Op: OpBot}) }

func (in *refInterner) Prop(name string) ID {
	return in.put(refKey{op: OpProp, prop: name}, Node{Op: OpProp, Prop: name})
}

func (in *refInterner) Not(f ID) ID {
	return in.put(refKey{op: OpNot, l: f}, Node{Op: OpNot, L: f})
}

func (in *refInterner) And(f, g ID) ID {
	return in.put(refKey{op: OpAnd, l: f, r: g}, Node{Op: OpAnd, L: f, R: g})
}

func (in *refInterner) Or(f, g ID) ID {
	return in.put(refKey{op: OpOr, l: f, r: g}, Node{Op: OpOr, L: f, R: g})
}

func (in *refInterner) Dia(idx kripke.Index, k int, f ID) ID {
	return in.put(
		refKey{op: OpDia, l: f, i: idx.I, j: idx.J, k: k},
		Node{Op: OpDia, L: f, Idx: idx, K: int32(k)})
}

func (in *refInterner) Box(idx kripke.Index, f ID) ID {
	return in.Not(in.Dia(idx, 1, in.Not(f)))
}

func (in *refInterner) BigAnd(fs ...ID) ID {
	if len(fs) == 0 {
		return in.Top()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = in.And(out, f)
	}
	return out
}

func (in *refInterner) BigOr(fs ...ID) ID {
	if len(fs) == 0 {
		return in.Bot()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = in.Or(out, f)
	}
	return out
}
