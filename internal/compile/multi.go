package compile

import (
	"fmt"
	"sort"

	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/term"
)

// MachineFromFormulas compiles a *tuple* of formulas into one machine —
// the paper's remark that non-binary outputs "can be handled by using
// tuples of formulas" (Section 4.3). The machine evaluates every formula
// simultaneously (one shared run of md_max rounds) and outputs the label
// of the first formula, in the given label order, that holds at the node;
// fallback is the label of the empty string if no formula holds.
//
// All formulas must live in the same model variant; the machine's class is
// the weakest class admitting all their fragments.
func MachineFromFormulas(formulas map[machine.Output]logic.Formula, delta int) (machine.Machine, kripke.Variant, error) {
	if len(formulas) == 0 {
		return nil, 0, fmt.Errorf("compile: no formulas")
	}
	labels := make([]machine.Output, 0, len(formulas))
	for l := range formulas {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	// Combine into one formula per label via a fresh conjunction so the
	// subformula closure is shared, then compile the disjunction-free
	// union: we compile the single formula OR over labels (to fix the
	// variant and closure) but track each root separately. Simplest
	// construction: compile ⋁ formulas to get variant/class, then one
	// machine per label sharing nothing — run them in lockstep inside one
	// wrapper machine.
	var union logic.Formula = logic.Bot{}
	for _, l := range labels {
		union = logic.Or{L: union, R: formulas[l]}
	}
	variant, err := VariantForFormula(union)
	if err != nil {
		return nil, 0, err
	}
	subs := make([]machine.Machine, len(labels))
	var class machine.Class
	for i, l := range labels {
		m, v, err := MachineFromFormula(formulas[l], delta)
		if err != nil {
			return nil, 0, fmt.Errorf("compile: formula for %q: %w", l, err)
		}
		if propositionalOnly(formulas[l]) {
			// Propositional formulas compile to the weakest variant; they
			// are compatible with any.
			v = variant
		}
		if v != variant {
			return nil, 0, fmt.Errorf("compile: formula for %q lives in %v, others in %v", l, v, variant)
		}
		subs[i] = m
		if i == 0 {
			class = m.Class()
		} else {
			class = weakerJoin(class, m.Class())
		}
	}

	type multiState struct {
		States []machine.State
		Done   bool
		Out    machine.Output
	}
	decide := func(states []machine.State) (machine.Output, bool) {
		allDone := true
		for i, s := range states {
			out, done := subs[i].Halted(s)
			if !done {
				allDone = false
				continue
			}
			_ = out
		}
		if !allDone {
			return "", false
		}
		for i, s := range states {
			if out, _ := subs[i].Halted(s); out == "1" {
				return labels[i], true
			}
		}
		return "", true
	}
	// A tuple is in the alphabet only if it has one part per formula and
	// each part is m0 or in its component's alphabet.
	valid := func(msg machine.Message) bool {
		t, err := machine.DecodeTerm(msg)
		if err != nil || t.Kind() != term.KindTuple || t.Len() != len(subs) {
			return false
		}
		for i, m := range subs {
			part := t.At(i)
			if part.Kind() != term.KindStr {
				return false
			}
			if s := part.StrVal(); s != machine.NoMessage && !m.(machine.MessageGuard).ValidMessage(s) {
				return false
			}
		}
		return true
	}
	name := fmt.Sprintf("compiled-tuple[%d formulas]", len(labels))
	return &machine.Func{
		MachineName:  name,
		MachineClass: class,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			sts := make([]machine.State, len(subs))
			for i, m := range subs {
				sts[i] = m.Init(deg)
			}
			out, done := decide(sts)
			return multiState{States: sts, Done: done, Out: out}
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(multiState)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			x := s.(multiState)
			parts := make([]string, len(subs))
			for i, m := range subs {
				if _, done := m.Halted(x.States[i]); done {
					parts[i] = string(machine.NoMessage)
				} else {
					parts[i] = string(m.Send(x.States[i], p))
				}
			}
			return machine.EncodeTermStrings(parts...)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(multiState)
			next := make([]machine.State, len(subs))
			for i, m := range subs {
				if _, done := m.Halted(x.States[i]); done {
					next[i] = x.States[i]
					continue
				}
				sub := make([]machine.Message, len(inbox))
				for k, msg := range inbox {
					sub[k] = sliceMessage(msg, i)
				}
				next[i] = m.Step(x.States[i], machine.CanonicalInbox(m.Class().Recv, sub))
			}
			out, done := decide(next)
			return multiState{States: next, Done: done, Out: out}
		},
		ValidFunc: valid,
	}, variant, nil
}

// sliceMessage extracts component i of a tuple message; m0 stays m0.
func sliceMessage(msg machine.Message, i int) machine.Message {
	if msg == machine.NoMessage {
		return machine.NoMessage
	}
	t, err := machine.DecodeTerm(msg)
	if err != nil {
		panic(fmt.Sprintf("compile: malformed tuple message %q", msg))
	}
	return machine.Message(t.At(i).StrVal())
}

// weakerJoin returns the weakest class at least as strong as both (join in
// the information lattice).
func weakerJoin(a, b machine.Class) machine.Class {
	out := a
	if b.Recv < out.Recv {
		out.Recv = b.Recv
	}
	if b.Send < out.Send {
		out.Send = b.Send
	}
	return out
}

func propositionalOnly(f logic.Formula) bool {
	return len(logic.Labels(f)) == 0
}
