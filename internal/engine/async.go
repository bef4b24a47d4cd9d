package engine

// async.go implements the asynchronous executor's Kahn-frontier core:
// the per-link queue state, the delivery and firing primitives and the
// fixpoint condition. The driver — the step loop over the shard runtime —
// lives in async_driver.go. Where the synchronous executors run the
// Section 1.3 semantics directly — one global barrier per round over a
// double-buffered arena — the async executor replaces the barrier with
// per-link FIFO queues and hands control of time to a schedule.Schedule:
// at every step the schedule decides which sent messages are delivered
// and which nodes are activated.
//
// The execution discipline is Kahn-style. Every directed link (an in-port
// slot of the routing table) carries two queues: messages in flight (sent,
// undelivered) and mail (delivered, consumable). An activated node fires
// only when every one of its in-ports has mail — a full frontier — and a
// firing consumes exactly one message per in-port, steps δ, and emits one
// message per out-port into the flight queues. Halted nodes keep firing to
// drain their queues and feed m0 to their neighbours, exactly as halted
// nodes send m0 forever in the synchronous semantics.
//
// One-per-port consumption makes the executor confluent: the j-th message
// on link u→v is u's j-th emission, so the k-th firing of v computes
//
//	x_v^k = δ(x_v^{k-1}, [μ(x_u^{k-1}, ·)]_u)
//
// — exactly the synchronous recurrence. A schedule chooses how fast each
// node advances along the synchronous trajectory, never where the
// trajectory goes; under any fair schedule halting algorithms reach the
// synchronous outputs, and under schedule.Synchronous the executor is
// bit-identical to ExecutorSeq (TestAsyncSynchronousEquivalence).
// The per-step state snapshots recorded into Result.Trace are therefore
// causality-consistent by construction: each is a configuration of the
// actual interleaved execution.
//
// Fixpoint detection: runs that stabilise without halting (the situation
// characterised by the modal μ-fragment) stop at the first step after which
// no future step can change any state. A node is at its fixpoint
// (nodeAtFixpoint) when every queued or in-flight message on its in-links
// equals what the link's source would send from its current state, and
// stepping it on that steady inbox would neither change its state nor halt
// it. When that holds at every node, induction on fire events shows the run
// is at a global fixpoint and every undelivered message is a no-op re-send.
//
// The detector is exact and incremental. A node's verdict reads only its
// own in-link queues and state and the states and liveness of its
// in-neighbours. Every node starts dirty, and a node is marked dirty again
// when it fires and when an emission lands on one of its in-links (pushed
// by the sending shard, or by the receiving one at a cross-shard merge);
// an in-neighbour's state changes only when it fires, and every firing
// emits on every out-port. Fault events need no marks: detection waits
// for the plan to settle, no node is cleaned before the first settled
// step, and a settled plan never drops, corrupts, retransmits, crashes or
// recovers again.
//
// After each step's last barrier the coordinator re-checks dirty nodes
// against the quiescent state, keeping a witness: one clean node known not
// to be at its fixpoint. Every other clean node is known to be at its
// fixpoint, so while the witness stays clean the answer is "no" at the
// cost of a flag test, and a re-checked witness costs one δ. Only when the
// witness turns out fixed does the coordinator scan the dirty nodes for a
// new one; a scan that finds none proves the global fixpoint. The verdict
// is a pure function of the configuration, so the stopping step is the
// same for every shard count; the witness only decides what it costs.
//
// Fault injection (Options.Fault, internal/fault) hooks into three
// places, all behind a nil check so fault-free runs pay nothing. First, a
// delivery filter on the per-link queues: each message the schedule
// delivers is assigned a fate — delivered, dropped (delivered as m0: the
// omission fault of message adversaries, preserving the one-entry-per-
// emission discipline so frontiers never starve), duplicated (an extra
// copy joins the mail queue) or corrupted (a Byzantine plan's Corrupter
// rewrites the payload; receivers implementing machine.MessageGuard
// degrade out-of-alphabet garbage to m0 at canonicalisation, so corruption
// is at worst omission to a guarded machine). Partition plans are
// correlated omission over a cut link set, so they ride the same filter.
// Second, a liveness mask gating activation: a crashed node's firings
// drain its frontier and emit m0 — like a halted node, so neighbours are
// not wedged — but never step δ; a recovery lifts the mask, either
// resuming the frozen state or resetting it through machine.Reboot.
// Third, sender-side retransmissions (fault.Decision.Resend): the
// coordinator pushes a link's steady message into its flight queue behind
// whatever is in flight, so a recovering node re-receives its frontier —
// for the fixpoint argument the extra copy is a no-op re-send, and for
// the Kahn discipline it is indistinguishable from a duplication. The
// fixpoint detector stays sound under faults by treating dead nodes as
// frozen (their steady message is m0, their state exempt from the
// would-change check) and by checking only once the plan is settled: an
// unsettled plan could still perturb a steady-looking configuration with
// a future m0-substitution, retransmission or reset.

import (
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// msgQueue is a FIFO of delivered messages with an amortised O(1) pop.
type msgQueue struct {
	buf  []machine.Message
	head int
}

func (q *msgQueue) push(m machine.Message) { q.buf = append(q.buf, m) }

func (q *msgQueue) pop() machine.Message {
	m := q.buf[q.head]
	q.buf[q.head] = machine.NoMessage // release the string
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

// pushFated enqueues one delivered message according to its fate — the
// single source of truth for fault application, shared by the inline
// filter of the single-shard delivery pass and the pre-drawn fates of the
// sharded one: a drop enqueues m0 in the message's place (the delivery
// slot survives, the content does not), a dup enqueues two copies. A
// corruption enqueues msg unchanged: whoever drew the fate already
// substituted the corruptor's rewrite for the genuine payload.
func (q *msgQueue) pushFated(msg machine.Message, f fault.Fate) {
	switch f {
	case fault.FateDrop:
		q.push(machine.NoMessage)
	case fault.FateDup:
		q.push(msg)
		q.push(msg)
	default: // FateDeliver, or FateCorrupt with the payload rewritten
		q.push(msg)
	}
}

// flightMsg is a sent, undelivered message stamped with its send step. born
// shares the step budget's type: the dilation-scaled default budget (and
// any explicit MaxRounds) is an int, and a narrower stamp would silently
// wrap the schedules' age accounting (View.OldestBorn) on large sweeps.
type flightMsg struct {
	msg  machine.Message
	born int
}

// flightQueue is a FIFO of in-flight messages.
type flightQueue struct {
	buf  []flightMsg
	head int
}

func (q *flightQueue) push(m machine.Message, born int) {
	q.buf = append(q.buf, flightMsg{msg: m, born: born})
}

func (q *flightQueue) pop() flightMsg {
	m := q.buf[q.head]
	q.buf[q.head] = flightMsg{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

func (q *flightQueue) len() int { return len(q.buf) - q.head }

// asyncState is the execution state of one asynchronous run.
type asyncState struct {
	m         machine.Machine
	g         *graph.Graph
	off       []int32 // CSR offsets: in-ports of v are links off[v]..off[v+1]-1
	dest      []int32 // out-port slot → destination link
	src       []int32 // link → out-port slot feeding it
	node      []int32 // slot → owning node
	broadcast bool
	recv      machine.RecvMode

	states  []machine.State
	halted  []bool
	outputs []machine.Output

	mail   []msgQueue    // per link: delivered, consumable
	flight []flightQueue // per link: sent, undelivered
	ready  []int32       // per node: in-ports with non-empty mail
	fires  []int64       // per node: completed firings

	// dirty marks the nodes whose fixpoint verdict may have changed since
	// the detector last computed it (see the file comment). Set by the
	// shard owning the node during phases, by the coordinator between
	// them; read and cleared only by the coordinator.
	dirty []bool

	// Fault state, allocated only when a plan runs (plan != nil): the
	// liveness mask, the initial states recoveries reset to, and the
	// plan's decision buffer. corrupt is the plan's Corrupter when it can
	// emit FateCorrupt (nil otherwise), and guard the machine's alphabet
	// guard, consulted per firing only when a corrupter runs — fault-free
	// and corruption-free runs pay a nil check and nothing else.
	plan    fault.Plan
	alive   []bool
	init    []machine.State
	fdec    *fault.Decision
	corrupt fault.Corrupter
	guard   machine.MessageGuard

	// jr is the run's journal, nil when no sink is attached. Shard phases
	// append fire/halt events to their stepStats buffer; everything else
	// is emitted on the coordinator in global order (see journal.go).
	jr *journal
}

// asyncBufs is the per-shard scratch space of the async executor: the
// frontier buffer firings consume through and the canonicalisation buffer,
// both sized to the maximum degree. Every shard owns its own, which is
// what keeps firings data-race free across shards; the fixpoint detector
// borrows shard 0's between barriers.
type asyncBufs struct {
	inbox   []machine.Message
	scratch []machine.Message
}

// newBufs allocates a scratch space for one shard.
func (as *asyncState) newBufs() asyncBufs {
	return asyncBufs{
		inbox:   make([]machine.Message, as.g.MaxDegree()),
		scratch: make([]machine.Message, 0, as.g.MaxDegree()),
	}
}

func newAsyncState(m machine.Machine, g *graph.Graph, p *port.Numbering, opts Options) (*asyncState, int, error) {
	n := g.N()
	r := p.Routes()
	links := r.NumPorts()
	// halted and dirty share one allocation, so the detector adds none to
	// a run; every node starts dirty.
	flags := make([]bool, 2*n)
	for v := n; v < 2*n; v++ {
		flags[v] = true
	}
	as := &asyncState{
		m:         m,
		g:         g,
		off:       r.Offsets(),
		dest:      r.DestTable(),
		src:       r.SourceTable(),
		node:      r.NodeTable(),
		broadcast: m.Class().Send == machine.SendBroadcast,
		recv:      m.Class().Recv,
		states:    make([]machine.State, n),
		halted:    flags[:n:n],
		dirty:     flags[n:],
		outputs:   make([]machine.Output, n),
		mail:      make([]msgQueue, links),
		flight:    make([]flightQueue, links),
		ready:     make([]int32, n),
		fires:     make([]int64, n),
		jr:        newJournal(opts.Obs),
	}
	// Seed every queue with a capacity-1 slice carved out of one flat
	// backing array: schedules that keep queues at depth ≤ 1 (Synchronous,
	// RoundRobin, anything delivering promptly) then run entirely
	// allocation-free; deeper queues grow their own buffers on demand.
	mailBacking := make([]machine.Message, links)
	flightBacking := make([]flightMsg, links)
	for l := 0; l < links; l++ {
		as.mail[l].buf = mailBacking[l : l : l+1]
		as.flight[l].buf = flightBacking[l : l : l+1]
	}
	active := n
	for v := 0; v < n; v++ {
		s, err := initState(m, g.Degree(v), v, opts)
		if err != nil {
			return nil, 0, err
		}
		as.states[v] = s
		if out, ok := m.Halted(s); ok {
			as.halted[v] = true
			as.outputs[v] = out
			active--
		}
	}
	if opts.Fault != nil {
		as.plan = opts.Fault
		as.alive = make([]bool, n)
		for v := range as.alive {
			as.alive[v] = true
		}
		// Snapshot z0 per node for reset recoveries: states are immutable
		// values (Step is pure), so sharing the initial state is safe.
		as.init = append([]machine.State(nil), as.states...)
		as.fdec = fault.NewDecision(n, links)
		if fault.CanCorrupt(opts.Fault) {
			as.corrupt = opts.Fault.(fault.Corrupter)
			if g, ok := m.(machine.MessageGuard); ok {
				as.guard = g
			}
		}
	}
	return as, active, nil
}

// dead reports whether node v is currently crashed. The alive mask is nil
// on fault-free runs, keeping the hot paths a single nil check away from
// their no-fault cost.
func (as *asyncState) dead(v int) bool {
	return as.alive != nil && !as.alive[v]
}

// silent reports whether node v currently emits m0 on every port: halted
// nodes send m0 forever (Section 1.3), and so do crashed ones — a dead
// process is silent, and m0 is what silence looks like to a neighbour.
func (as *asyncState) silent(v int) bool {
	return as.halted[v] || as.dead(v)
}

// portMessage is the single source of truth for what node v emits through
// out-port slot s (lo = v's first slot): m0 when silent, the broadcast
// message bmsg (computed once per firing by the caller) for broadcast
// machines, the per-port μ otherwise. Both drivers' emission paths go
// through it, so they cannot drift apart.
func (as *asyncState) portMessage(v int, s, lo int32, silent bool, bmsg machine.Message) machine.Message {
	switch {
	case silent:
		return machine.NoMessage
	case as.broadcast:
		return bmsg
	default:
		return as.m.Send(as.states[v], int(s-lo)+1)
	}
}

// mark flags node v dirty for the fixpoint detector. It tests before it
// writes: between checks most nodes stay dirty, and a redundant store
// would still take the flag's cache line from other shards writing flags
// on the same line.
func (as *asyncState) mark(v int32) {
	if !as.dirty[v] {
		as.dirty[v] = true
	}
}

// broadcastMessage computes the one message a broadcast machine emits on
// every port this firing, or m0 when the node is silent.
func (as *asyncState) broadcastMessage(v int, silent bool) machine.Message {
	if silent || !as.broadcast {
		return machine.NoMessage
	}
	return as.m.Send(as.states[v], 1)
}

// emit sends node v's current outgoing messages into the flight queues,
// stamped with the given step.
func (as *asyncState) emit(v, step int) {
	lo, hi := as.off[v], as.off[v+1]
	silent := as.silent(v)
	bmsg := as.broadcastMessage(v, silent)
	for s := lo; s < hi; s++ {
		dl := as.dest[s]
		as.flight[dl].push(as.portMessage(v, s, lo, silent, bmsg), step)
		as.mark(as.node[dl])
	}
}

// deliver moves up to k oldest in-flight messages on link l into its mail
// queue, maintaining the frontier-readiness count of the receiving node.
func (as *asyncState) deliver(l int32, k int) {
	fq := &as.flight[l]
	if avail := fq.len(); k > avail {
		k = avail
	}
	if k <= 0 {
		return
	}
	mq := &as.mail[l]
	if mq.len() == 0 {
		as.ready[as.node[l]]++
	}
	for i := 0; i < k; i++ {
		mq.push(fq.pop().msg)
	}
}

// deliverFiltered is deliver with the fault plan's delivery filter in the
// loop: each delivered message is assigned a fate — delivered unchanged,
// dropped (m0 takes its place in the mail queue, so the frontier count
// still advances and the receiver observes silence) or duplicated (two
// copies join the queue). Only called by a single shard walking every
// link in global order, so the plan's random stream is drawn exactly as
// planFates pre-draws it for sharded runs; fault-free runs keep the
// branch-free deliver.
func (as *asyncState) deliverFiltered(l int32, k, t int, res *Result) {
	fq := &as.flight[l]
	if avail := fq.len(); k > avail {
		k = avail
	}
	if k <= 0 {
		return
	}
	mq := &as.mail[l]
	if mq.len() == 0 {
		as.ready[as.node[l]]++
	}
	for i := 0; i < k; i++ {
		msg := fq.pop().msg
		f := as.plan.Filter(t, int(l))
		switch f {
		case fault.FateDrop:
			res.Drops++
		case fault.FateDup:
			res.Dups++
		case fault.FateCorrupt:
			res.Corruptions++
			msg = as.corrupt.Corrupt(t, int(l), msg)
		}
		if as.jr != nil && f != fault.FateDeliver {
			// A single shard owns every link here, so this emission order is
			// the global (link, queue-position) order — the same order
			// planFates journals the pre-drawn fates in for sharded runs.
			as.jr.coordEvent(obs.Event{
				Step: int64(t), Kind: fateKind(f), Node: -1, Link: l, Arg: int64(i)})
		}
		mq.pushFated(msg, f)
	}
}

// deliverFated is deliverFiltered with the per-message fates already drawn:
// the coordinator of a sharded run consumes the plan's random stream in
// global (link, queue-position) order — the exact order a single shard
// draws it in — and hands each worker the resulting fate slices, so
// delivery itself never touches the plan. crpt, parallel to fates, holds
// the pre-drawn corruption rewrites (meaningful only at FateCorrupt
// entries; nil when the plan cannot corrupt). Callers guarantee
// 0 < len(fates) ≤ the link's in-flight count; Drops/Dups/Corruptions
// were counted by whoever drew the fates.
func (as *asyncState) deliverFated(l int32, fates []fault.Fate, crpt []machine.Message) {
	fq := &as.flight[l]
	mq := &as.mail[l]
	if mq.len() == 0 {
		as.ready[as.node[l]]++
	}
	for i, f := range fates {
		msg := fq.pop().msg
		if f == fault.FateCorrupt {
			msg = crpt[i]
		}
		mq.pushFated(msg, f)
	}
}

// canFire reports whether node v holds a full frontier: one delivered
// message on every in-port. Zero-degree nodes can always fire.
func (as *asyncState) canFire(v int) bool {
	return as.ready[v] == as.off[v+1]-as.off[v]
}

// consume pops node v's frontier into bufs, steps δ (halted and crashed
// nodes discard — the liveness mask gates the δ-step, not the drain), and
// checks halting. Callers have checked canFire and must follow up with an
// emission of v's next messages.
func (as *asyncState) consume(v int, st *stepStats, bufs *asyncBufs) {
	lo, hi := as.off[v], as.off[v+1]
	deg := int(hi - lo)
	inbox := bufs.inbox[:deg]
	for i := 0; i < deg; i++ {
		q := &as.mail[lo+int32(i)]
		msg := q.pop()
		if q.len() == 0 {
			as.ready[v]--
		}
		st.bytes += int64(len(msg))
		inbox[i] = msg
	}
	as.fires[v]++
	as.mark(int32(v))
	if as.jr != nil {
		st.events = append(st.events, obs.Event{
			Step: int64(st.step), Kind: obs.KindFire, Node: int32(v), Link: -1,
			Arg: as.fires[v]})
	}
	if !as.halted[v] && !as.dead(v) {
		// Corruption-tolerant canonicalisation: under a corrupting plan,
		// payloads outside the machine's alphabet degrade to m0 — the
		// receiver treats garbage as silence, like an omission fault.
		if as.guard != nil {
			machine.GuardInbox(as.guard, inbox)
		}
		cin := machine.CanonicalInboxInto(as.recv, inbox, bufs.scratch)
		as.states[v] = as.m.Step(as.states[v], cin)
		if out, ok := as.m.Halted(as.states[v]); ok {
			as.halted[v] = true
			as.outputs[v] = out
			st.newHalts++
			if as.jr != nil {
				st.events = append(st.events, obs.Event{
					Step: int64(st.step), Kind: obs.KindHalt, Node: int32(v), Link: -1})
			}
		}
	}
}

// steadyMessage returns the message the source of link l would send right
// now: the fixpoint candidate every queued message is compared against.
func (as *asyncState) steadyMessage(l int32) machine.Message {
	s := as.src[l]
	u := as.node[s]
	if as.halted[u] || as.dead(int(u)) {
		return machine.NoMessage
	}
	if as.broadcast {
		return as.m.Send(as.states[u], 1)
	}
	return as.m.Send(as.states[u], int(s-as.off[u])+1)
}

// nodeAtFixpoint checks the fixpoint condition at node v: every message
// queued or in flight on its in-links equals the source's steady message,
// and — unless v is halted or dead (frozen: a settled plan will never
// revive it, so its state is exempt) — stepping v on the steady inbox
// would neither halt it nor change its state. It reads only v's own queues
// plus the (quiescent) states of v's neighbours, which is what lets the
// detector re-check only the nodes marked dirty.
func (as *asyncState) nodeAtFixpoint(v int, bufs *asyncBufs) bool {
	lo, hi := as.off[v], as.off[v+1]
	for l := lo; l < hi; l++ {
		mq, fq := &as.mail[l], &as.flight[l]
		if mq.len() == 0 && fq.len() == 0 {
			continue
		}
		want := as.steadyMessage(l)
		for i := mq.head; i < len(mq.buf); i++ {
			if mq.buf[i] != want {
				return false
			}
		}
		for i := fq.head; i < len(fq.buf); i++ {
			if fq.buf[i].msg != want {
				return false
			}
		}
	}
	if as.halted[v] || as.dead(v) {
		return true
	}
	inbox := bufs.inbox[:hi-lo]
	for l := lo; l < hi; l++ {
		inbox[l-lo] = as.steadyMessage(l)
	}
	cin := machine.CanonicalInboxInto(as.recv, inbox, bufs.scratch)
	next := as.m.Step(as.states[v], cin)
	if _, ok := as.m.Halted(next); ok {
		return false
	}
	return machine.StatesEqual(as.m, as.states[v], next)
}

// asyncView adapts asyncState to schedule.View and fault.View.
type asyncView struct{ as *asyncState }

func (w asyncView) Nodes() int        { return len(w.as.states) }
func (w asyncView) Links() int        { return len(w.as.mail) }
func (w asyncView) Fires(v int) int64 { return w.as.fires[v] }
func (w asyncView) Halted(v int) bool { return w.as.halted[v] }
func (w asyncView) InFlight(l int) int {
	return w.as.flight[l].len()
}
func (w asyncView) OldestBorn(l int) int {
	q := &w.as.flight[l]
	if q.len() == 0 {
		return -1
	}
	return q.buf[q.head].born
}
func (w asyncView) Alive(v int) bool { return !w.as.dead(v) }

// asyncTopology adapts asyncState to fault.Topology.
type asyncTopology struct{ as *asyncState }

func (t asyncTopology) Nodes() int        { return len(t.as.states) }
func (t asyncTopology) Links() int        { return len(t.as.mail) }
func (t asyncTopology) Degree(v int) int  { return t.as.g.Degree(v) }
func (t asyncTopology) LinkSrc(l int) int { return int(t.as.node[t.as.src[l]]) }
func (t asyncTopology) LinkDst(l int) int { return int(t.as.node[l]) }

// applyFaults applies the plan's crash/recovery/retransmission decision
// for step t and returns the change in the active (non-halted) node
// count: a reset recovery can un-halt a halted node (reboot into a fresh
// z0) or, for machines whose initial state is already a stopping state,
// halt it again immediately.
func (as *asyncState) applyFaults(t int, view asyncView, res *Result) (activeDelta int) {
	as.fdec.Reset()
	as.plan.Step(t, view, as.fdec)
	for v, crash := range as.fdec.Crash {
		if crash && as.alive[v] {
			as.alive[v] = false
			res.Crashes++
			if as.jr != nil {
				as.jr.coordEvent(obs.Event{
					Step: int64(t), Kind: obs.KindCrash, Node: int32(v), Link: -1})
			}
		}
	}
	for v, kind := range as.fdec.Recover {
		if kind == fault.RecoverNone || as.alive[v] {
			continue
		}
		as.alive[v] = true
		res.Recoveries++
		if as.jr != nil {
			as.jr.coordEvent(obs.Event{
				Step: int64(t), Kind: obs.KindRecover, Node: int32(v), Link: -1,
				Arg: int64(kind)})
		}
		if kind != fault.RecoverReset {
			continue
		}
		ns := machine.Reboot(as.m, as.g.Degree(v), as.states[v], as.init[v])
		as.states[v] = ns
		wasHalted := as.halted[v]
		out, ok := as.m.Halted(ns)
		as.halted[v] = ok
		if ok {
			as.outputs[v] = out
			if !wasHalted {
				activeDelta--
			}
		} else {
			as.outputs[v] = ""
			if wasHalted {
				activeDelta++
			}
		}
	}
	// Sender-side retransmissions: push the source's current steady message
	// onto each requested link, stamped with this step, behind whatever is
	// already in flight. This runs on the coordinator over quiescent state
	// (before the step's deliveries), in ascending link order, and both the
	// single-shard and pre-draw delivery paths compute their per-link
	// delivery counts after it — so the shard count stays invisible. A dead
	// or halted source retransmits m0; for the fixpoint argument the extra
	// copy is exactly a no-op re-send.
	for l, resend := range as.fdec.Resend {
		if resend {
			as.flight[l].push(as.steadyMessage(int32(l)), t)
			res.Retransmits++
			if as.jr != nil {
				as.jr.coordEvent(obs.Event{
					Step: int64(t), Kind: obs.KindRetransmit, Node: -1, Link: int32(l)})
			}
		}
	}
	return activeDelta
}

// maxDefaultAsyncSteps caps the dilation-scaled default step budget so a
// non-halting, non-stabilising run cannot burn O(n·rounds) steps (each
// costing O(n+links) work) before erroring. Explicit MaxRounds is never
// capped.
const maxDefaultAsyncSteps = 10_000_000

// asyncStepBudget resolves the async step budget: an explicit MaxRounds is
// taken literally as steps; the default round budget is scaled by the
// schedule's worst-case steps-per-round dilation (n when the schedule does
// not report one) so fair-but-slow schedules like roundrobin don't
// spuriously hit ErrNoHalt, then capped at maxDefaultAsyncSteps.
func asyncStepBudget(opts Options, sched schedule.Schedule, n int) int {
	maxSteps := maxRoundsOf(opts)
	if opts.MaxRounds > 0 {
		return maxSteps
	}
	dilation := n
	if d, ok := sched.(schedule.Dilated); ok {
		dilation = d.Dilation(n)
	}
	if dilation > 1 {
		if maxSteps > maxDefaultAsyncSteps/dilation {
			maxSteps = maxDefaultAsyncSteps
		} else {
			maxSteps *= dilation
		}
	}
	return maxSteps
}
