package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/schedule"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one job share Job; Parent is the ID of the span that caused
// this one, 0 for a job's root span.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggRecord is what a forwarding wrapper keeps for one job instead of a
// span per call: the call count and the summed duration.
type aggRecord struct {
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	Nanos  int64  `json:"total_ns"`
}

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run ends. Spans are opened and closed
// on the benchmark's goroutine only; the wrappers below are called from
// engine workers and aggregate through atomics instead.
type tracer struct {
	origin time.Time
	job    int
	nextID int
	open   []int // stack of open span IDs
	spans  []span
	aggs   []aggRecord
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginJob opens the root span of job j.
func (t *tracer) beginJob(j int) func() {
	t.job = j
	return t.begin("job")
}

// begin opens a span named name under the innermost open span and
// returns the function that closes it.
func (t *tracer) begin(name string) func() {
	t.nextID++
	s := span{Job: t.job, ID: t.nextID, Name: name, Start: int64(time.Since(t.origin))}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, s.ID)
	i := len(t.spans)
	t.spans = append(t.spans, s)
	return func() {
		t.spans[i].End = int64(time.Since(t.origin))
		t.open = t.open[:len(t.open)-1]
	}
}

// seconds returns the summed duration of the current job's spans named
// name, 0 if there are none.
func (t *tracer) seconds(name string) float64 {
	var total float64
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Job == t.job; i-- {
		if t.spans[i].Name == name {
			total += float64(t.spans[i].End-t.spans[i].Start) / 1e9
		}
	}
	return total
}

// aggregate records a wrapper's per-job totals under the innermost open span.
func (t *tracer) aggregate(name string, calls, nanos int64) {
	r := aggRecord{Job: t.job, Name: name, Calls: calls, Nanos: nanos}
	if len(t.open) > 0 {
		r.Parent = t.open[len(t.open)-1]
	}
	t.aggs = append(t.aggs, r)
}

// writeTo writes every span and aggregate as JSON lines.
func (t *tracer) writeTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, a := range t.aggs {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes the trace to dir/name, creating dir.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := t.writeTo(bw); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// call runs f inside a span named name when t is non-nil.
func call[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	if t == nil {
		return f()
	}
	defer t.begin(name)()
	return f()
}

// counter is a call count and summed duration, safe for concurrent use.
type counter struct{ calls, nanos atomic.Int64 }

func (c *counter) add(start time.Time) {
	c.nanos.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

func (c *counter) seconds() float64 { return float64(c.nanos.Load()) / 1e9 }

// machineStats aggregates the μ/δ calls of one job.
type machineStats struct {
	send, step counter
	inboxBytes atomic.Int64
	changed    atomic.Int64 // δ calls whose successor differs from the state
}

// tracedMachine forwards every Machine call to the wrapped machine and
// times μ (Send) and δ (Step). FixpointProber and DegreeOblivious are
// forwarded unconditionally, which is exact: machine.StatesEqual and
// machine.DegreeOblivious give the same answers through the wrapper. The
// interfaces whose mere presence changes what the engine does are added
// only when the wrapped machine has them (see wrapMachine).
type tracedMachine struct {
	machine.Machine
	st *machineStats
}

func (m tracedMachine) Send(s machine.State, port int) machine.Message {
	start := time.Now()
	msg := m.Machine.Send(s, port)
	m.st.send.add(start)
	return msg
}

func (m tracedMachine) Step(s machine.State, inbox []machine.Message) machine.State {
	start := time.Now()
	next := m.Machine.Step(s, inbox)
	m.st.step.add(start)
	var b int64
	for _, msg := range inbox {
		b += int64(len(msg))
	}
	m.st.inboxBytes.Add(b)
	if !machine.StatesEqual(m.Machine, s, next) {
		m.st.changed.Add(1)
	}
	return next
}

func (m tracedMachine) StatesEqual(a, b machine.State) bool {
	return machine.StatesEqual(m.Machine, a, b)
}

func (m tracedMachine) DegreeOblivious() bool { return machine.DegreeOblivious(m.Machine) }

type guardFwd struct{ g machine.MessageGuard }

func (f guardFwd) ValidMessage(msg machine.Message) bool { return f.g.ValidMessage(msg) }

type inputFwd struct{ ia machine.InputAware }

func (f inputFwd) InitWithInput(deg int, input string) machine.State {
	return f.ia.InitWithInput(deg, input)
}

type rebootFwd struct{ r machine.Rebooter }

func (f rebootFwd) RebootState(deg int, crashed machine.State) machine.State {
	return f.r.RebootState(deg, crashed)
}

// wrapMachine returns m behind a tracedMachine that implements
// MessageGuard, InputAware and Rebooter exactly when m does. Hiding
// MessageGuard would let Byzantine payloads reach δ.
func wrapMachine(m machine.Machine, st *machineStats) machine.Machine {
	base := tracedMachine{m, st}
	g, isG := m.(machine.MessageGuard)
	ia, isI := m.(machine.InputAware)
	r, isR := m.(machine.Rebooter)
	switch {
	case isG && isI && isR:
		return struct {
			tracedMachine
			guardFwd
			inputFwd
			rebootFwd
		}{base, guardFwd{g}, inputFwd{ia}, rebootFwd{r}}
	case isG && isI:
		return struct {
			tracedMachine
			guardFwd
			inputFwd
		}{base, guardFwd{g}, inputFwd{ia}}
	case isG && isR:
		return struct {
			tracedMachine
			guardFwd
			rebootFwd
		}{base, guardFwd{g}, rebootFwd{r}}
	case isI && isR:
		return struct {
			tracedMachine
			inputFwd
			rebootFwd
		}{base, inputFwd{ia}, rebootFwd{r}}
	case isG:
		return struct {
			tracedMachine
			guardFwd
		}{base, guardFwd{g}}
	case isI:
		return struct {
			tracedMachine
			inputFwd
		}{base, inputFwd{ia}}
	case isR:
		return struct {
			tracedMachine
			rebootFwd
		}{base, rebootFwd{r}}
	default:
		return base
	}
}

// scheduleStats aggregates the schedule draws of one job.
type scheduleStats struct {
	step        counter
	activations atomic.Int64 // activations requested by the decisions
}

// tracedSchedule times Step and counts the activations it requests.
type tracedSchedule struct {
	schedule.Schedule
	st    *scheduleStats
	nodes int
}

func (s *tracedSchedule) Begin(nodes, links int) {
	s.nodes = nodes
	s.Schedule.Begin(nodes, links)
}

func (s *tracedSchedule) Step(t int, view schedule.View, dec *schedule.Decision) {
	start := time.Now()
	s.Schedule.Step(t, view, dec)
	s.st.step.add(start)
	if dec.ActivateAll {
		s.st.activations.Add(int64(s.nodes))
		return
	}
	var a int64
	for _, on := range dec.Activate {
		if on {
			a++
		}
	}
	s.st.activations.Add(a)
}

type dilatedFwd struct{ d schedule.Dilated }

func (f dilatedFwd) Dilation(nodes int) int { return f.d.Dilation(nodes) }

type resumableFwd struct{ r schedule.Resumable }

func (f resumableFwd) SnapshotState() []byte       { return f.r.SnapshotState() }
func (f resumableFwd) RestoreState(b []byte) error { return f.r.RestoreState(b) }

// wrapSchedule returns s behind a tracedSchedule that implements Dilated
// and Resumable exactly when s does: the engine's step budget depends on
// the first, snapshots on the second.
func wrapSchedule(s schedule.Schedule, st *scheduleStats) schedule.Schedule {
	base := &tracedSchedule{Schedule: s, st: st}
	d, isD := s.(schedule.Dilated)
	r, isR := s.(schedule.Resumable)
	switch {
	case isD && isR:
		return struct {
			*tracedSchedule
			dilatedFwd
			resumableFwd
		}{base, dilatedFwd{d}, resumableFwd{r}}
	case isD:
		return struct {
			*tracedSchedule
			dilatedFwd
		}{base, dilatedFwd{d}}
	case isR:
		return struct {
			*tracedSchedule
			resumableFwd
		}{base, resumableFwd{r}}
	default:
		return base
	}
}

// planStats aggregates the fault plan's calls of one job: Step, Filter
// and Corrupt together make up the fault layer's time.
type planStats struct {
	filter, other counter
}

// tracedPlan times every call into a fault plan. Healed is forwarded
// unconditionally (0 for plans without a Healer, which the engine cannot
// tell from having none).
type tracedPlan struct {
	fault.Plan
	st *planStats
}

func (p tracedPlan) Step(t int, view fault.View, dec *fault.Decision) {
	start := time.Now()
	p.Plan.Step(t, view, dec)
	p.st.other.add(start)
}

func (p tracedPlan) Filter(t, link int) fault.Fate {
	start := time.Now()
	f := p.Plan.Filter(t, link)
	p.st.filter.add(start)
	return f
}

func (p tracedPlan) Healed() int64 {
	if h, ok := p.Plan.(fault.Healer); ok {
		return h.Healed()
	}
	return 0
}

type corruptFwd struct {
	c  fault.Corrupter
	st *planStats
}

func (f corruptFwd) Corrupt(t, link int, msg string) string {
	start := time.Now()
	out := f.c.Corrupt(t, link, msg)
	f.st.other.add(start)
	return out
}

// wrapPlan returns p behind a tracedPlan that is a Corrupter exactly when
// fault.CanCorrupt(p) and Resumable exactly when p is. CanCorrupt looks
// through the concrete composite type, which the wrapper hides; deciding
// Corrupter-ness from CanCorrupt keeps the engine's guard path unchanged.
// Like the engine, it relies on every plan that can corrupt being a
// Corrupter.
func wrapPlan(p fault.Plan, st *planStats) fault.Plan {
	base := tracedPlan{p, st}
	isC := fault.CanCorrupt(p)
	r, isR := p.(schedule.Resumable)
	switch {
	case isC && isR:
		return struct {
			tracedPlan
			corruptFwd
			resumableFwd
		}{base, corruptFwd{p.(fault.Corrupter), st}, resumableFwd{r}}
	case isC:
		return struct {
			tracedPlan
			corruptFwd
		}{base, corruptFwd{p.(fault.Corrupter), st}}
	case isR:
		return struct {
			tracedPlan
			resumableFwd
		}{base, resumableFwd{r}}
	default:
		return base
	}
}

// timedWriter counts and times the writes a layer makes into w.
type timedWriter struct {
	w io.Writer
	counter
	bytes atomic.Int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.add(start)
	t.bytes.Add(int64(n))
	return n, err
}
