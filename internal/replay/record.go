package replay

// record.go is the recording side: New wraps a run's Options so that the
// schedule, the fault plan and the checkpoint stream all pass through a
// Recorder, which mirrors every decision into an in-memory Recording and
// (optionally) streams it to a writer in the WRPLAY02 format, record by
// record — a killed process leaves a loadable prefix.
//
// The wrappers are shape-preserving: the engine type-asserts its
// generators (Corrupter for the receiver-side guard, Dilated for the step
// budget, Resumable for checkpointing), so each wrapper variant carries
// exactly the optional methods its wrapped generator carries. Corrupter-
// ness follows fault.CanCorrupt — a composite implements Corrupt
// structurally even when no component can lie, and mirroring the method
// rather than the capability would flip the engine's guard. The one
// deliberate widening is Healer: the wrapper (like the player) always
// implements it, reporting 0 forever for plans that never heal, which is
// observationally identical to having no Healer at all.

import (
	"fmt"
	"io"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/schedule"
)

// Recorder accumulates one run's decision stream. Obtain one from New,
// run the engine with the returned Options, then call Finish.
type Recorder struct {
	rec *Recording
	out *recordWriter // nil for in-memory recordings

	// Pending fates of the step currently being filtered; flushed when a
	// later step's record arrives and at Finish.
	cur fateStep

	lastPlanStep int
}

// New prepares a recorded run: it returns a copy of opts whose schedule,
// fault plan and checkpoint stream are wrapped to record into the returned
// Recorder, with snapshots taken every `every` steps (≥ 1). The recorded
// run itself is bit-identical to the unwrapped one. When w is non-nil the
// recording is additionally streamed to it record by record (states must
// then be gob-encodable for the snapshots); a nil w keeps everything in
// memory, with live (never serialized) snapshots.
//
// After engine.Run returns, call Finish with its Result to seal the
// recording. opts must not already set Checkpoint.
func New(opts engine.Options, every int, w io.Writer) (engine.Options, *Recorder, error) {
	if every < 1 {
		return opts, nil, fmt.Errorf("replay: snapshot cadence %d, want ≥ 1", every)
	}
	if opts.Checkpoint != nil {
		return opts, nil, fmt.Errorf("replay: options already carry a Checkpoint sink")
	}
	r := &Recorder{rec: &Recording{}}
	if w != nil {
		if _, err := w.Write([]byte(replayMagic)); err != nil {
			return opts, nil, fmt.Errorf("replay: write header: %w", err)
		}
		r.out = &recordWriter{w: w}
	}
	if opts.Executor == engine.ExecutorAsync {
		sched := opts.Schedule
		if sched == nil {
			// The engine would default it; record the default explicitly so
			// the wrapper sees every Step call.
			sched = schedule.Synchronous()
		}
		opts.Schedule = wrapSchedule(sched, r)
		if opts.Fault != nil {
			r.rec.HasPlan = true
			r.rec.Corrupts = fault.CanCorrupt(opts.Fault)
			opts.Fault = wrapPlan(opts.Fault, r)
		}
	} else {
		r.rec.Sync = true
	}
	r.emit(recBegin, func() []byte { return encodeBegin(r.rec) })
	opts.Checkpoint = &engine.CheckpointOptions{Every: every, Sink: r.addSnapshot}
	return opts, r, nil
}

// Recording returns the recording built so far. Before Finish it is
// incomplete (FinalStep 0) and only useful for inspection.
func (r *Recorder) Recording() *Recording { return r.rec }

// Finish seals the recording with the completed run's Result and flushes
// the trailing records. A recording without Finish (the run errored, or
// the process died) keeps its prefix but cannot be replayed.
func (r *Recorder) Finish(res *engine.Result) error {
	r.flushFates()
	r.rec.FinalStep = res.Rounds
	r.rec.Fixpoint = res.Fixpoint
	r.emit(recEnd, func() []byte { return encodeEnd(r.rec) })
	if r.out != nil {
		return r.out.err
	}
	return nil
}

// emit streams one record when a writer is attached.
func (r *Recorder) emit(tag byte, payload func() []byte) {
	if r.out != nil {
		r.out.emit(tag, payload())
	}
}

// addSnapshot is the engine's checkpoint sink.
func (r *Recorder) addSnapshot(s *engine.Snapshot) error {
	// The snapshot is captured after the step's last Filter draw, so the
	// pending fates belong before it in the stream.
	r.flushFates()
	r.rec.snaps = append(r.rec.snaps, s)
	if r.out != nil {
		data, err := s.MarshalBinary()
		if err != nil {
			return fmt.Errorf("replay: serialize snapshot at step %d: %w", s.Step, err)
		}
		r.out.emit(recSnap, data)
		return r.out.err
	}
	return nil
}

func (r *Recorder) recordSched(t int, dec *schedule.Decision) {
	r.flushFates()
	s := schedStep{step: t, activateAll: dec.ActivateAll, deliverAll: dec.DeliverAll}
	if !dec.ActivateAll {
		s.activate = append([]bool(nil), dec.Activate...)
	}
	if !dec.DeliverAll {
		s.deliver = append([]int32(nil), dec.Deliver...)
	}
	r.rec.scheds = append(r.rec.scheds, s)
	r.emit(recSched, func() []byte { return encodeSched(&s) })
}

func (r *Recorder) recordPlan(t int, dec *fault.Decision, healed int64) {
	r.lastPlanStep = t
	s := planStep{
		step:    t,
		crash:   append([]bool(nil), dec.Crash...),
		recover: append([]fault.RecoverKind(nil), dec.Recover...),
		resend:  append([]bool(nil), dec.Resend...),
		healed:  healed,
	}
	r.rec.plans = append(r.rec.plans, s)
	r.emit(recPlanDec, func() []byte { return encodePlan(&s) })
}

func (r *Recorder) recordFate(t int, f fault.Fate) {
	if r.cur.step != t {
		r.flushFates()
		r.cur.step = t
	}
	r.cur.fates = append(r.cur.fates, f)
}

func (r *Recorder) recordRewrite(t int, msg string) {
	if r.cur.step != t {
		r.flushFates()
		r.cur.step = t
	}
	r.cur.rewrites = append(r.cur.rewrites, msg)
}

func (r *Recorder) recordSettled(ok bool) {
	s := settledStep{step: r.lastPlanStep, ok: ok}
	r.rec.settled = append(r.rec.settled, s)
	r.emit(recSettled, func() []byte { return encodeSettled(s) })
}

func (r *Recorder) flushFates() {
	if len(r.cur.fates) == 0 && len(r.cur.rewrites) == 0 {
		return
	}
	s := r.cur
	r.rec.fates = append(r.rec.fates, s)
	r.emit(recFates, func() []byte { return encodeFates(&s) })
	r.cur = fateStep{}
}

// recSchedule wraps a schedule, recording every decision. It always
// implements Dilated, replicating the engine's default (dilation n) for
// schedules that don't, so the wrapped run's step budget is unchanged.
type recSchedule struct {
	inner schedule.Schedule
	r     *Recorder
}

func (s *recSchedule) Name() string       { return s.inner.Name() }
func (s *recSchedule) Begin(n, links int) { s.inner.Begin(n, links) }
func (s *recSchedule) Step(t int, view schedule.View, dec *schedule.Decision) {
	s.inner.Step(t, view, dec)
	s.r.recordSched(t, dec)
}
func (s *recSchedule) Dilation(nodes int) int {
	if d, ok := s.inner.(schedule.Dilated); ok {
		return d.Dilation(nodes)
	}
	return nodes
}

// recScheduleR additionally forwards Resumable, so checkpoints taken
// during a recorded run still carry the live generator's state (for
// engine-level resume with live generators; replay strips them).
type recScheduleR struct{ recSchedule }

func (s *recScheduleR) SnapshotState() []byte {
	return s.inner.(schedule.Resumable).SnapshotState()
}
func (s *recScheduleR) RestoreState(b []byte) error {
	return s.inner.(schedule.Resumable).RestoreState(b)
}

func wrapSchedule(inner schedule.Schedule, r *Recorder) schedule.Schedule {
	base := recSchedule{inner: inner, r: r}
	if _, ok := inner.(schedule.Resumable); ok {
		return &recScheduleR{base}
	}
	return &base
}

// recPlan wraps a fault plan, recording decisions, fates and settledness.
type recPlan struct {
	inner fault.Plan
	r     *Recorder
}

func (p *recPlan) Name() string             { return p.inner.Name() }
func (p *recPlan) Begin(top fault.Topology) { p.inner.Begin(top) }
func (p *recPlan) Step(t int, view fault.View, dec *fault.Decision) {
	p.inner.Step(t, view, dec)
	p.r.recordPlan(t, dec, p.Healed())
}
func (p *recPlan) Filter(t, link int) fault.Fate {
	f := p.inner.Filter(t, link)
	p.r.recordFate(t, f)
	return f
}
func (p *recPlan) Settled() bool {
	ok := p.inner.Settled()
	p.r.recordSettled(ok)
	return ok
}

// Healed is implemented unconditionally (see the package comment): 0
// forever for plans without a Healer is indistinguishable from no Healer.
func (p *recPlan) Healed() int64 {
	if h, ok := p.inner.(fault.Healer); ok {
		return h.Healed()
	}
	return 0
}

func (p *recPlan) corrupt(t, link int, msg string) string {
	rewrite := p.inner.(fault.Corrupter).Corrupt(t, link, msg)
	p.r.recordRewrite(t, rewrite)
	return rewrite
}

func (p *recPlan) snapshotState() []byte {
	return p.inner.(schedule.Resumable).SnapshotState()
}
func (p *recPlan) restoreState(b []byte) error {
	return p.inner.(schedule.Resumable).RestoreState(b)
}

// The wrapper variants: corrupter-ness × resumability, matched to the
// wrapped plan's shape at construction.
type recPlanC struct{ recPlan }

func (p *recPlanC) Corrupt(t, link int, msg string) string { return p.corrupt(t, link, msg) }

type recPlanR struct{ recPlan }

func (p *recPlanR) SnapshotState() []byte       { return p.snapshotState() }
func (p *recPlanR) RestoreState(b []byte) error { return p.restoreState(b) }

type recPlanCR struct{ recPlan }

func (p *recPlanCR) Corrupt(t, link int, msg string) string { return p.corrupt(t, link, msg) }
func (p *recPlanCR) SnapshotState() []byte                  { return p.snapshotState() }
func (p *recPlanCR) RestoreState(b []byte) error            { return p.restoreState(b) }

func wrapPlan(inner fault.Plan, r *Recorder) fault.Plan {
	base := recPlan{inner: inner, r: r}
	corrupts := fault.CanCorrupt(inner)
	_, resumable := inner.(schedule.Resumable)
	switch {
	case corrupts && resumable:
		return &recPlanCR{base}
	case corrupts:
		return &recPlanC{base}
	case resumable:
		return &recPlanR{base}
	default:
		return &base
	}
}
