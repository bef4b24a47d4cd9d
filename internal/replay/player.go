package replay

// player.go is the replay side: a schedule and a fault plan that serve the
// recorded decision stream back to the engine instead of drawing any
// randomness. The engine consumes decisions, fates and rewrites in exactly
// the order it emitted them while recording (its own determinism
// discipline guarantees that), so the players are plain cursors. Any
// mismatch — a step out of order, an exhausted stream — means the replay
// diverged from the recording (or the recording is corrupt) and fails the
// run via a replayFailure panic that Replay converts to an error.
//
// Player shape mirrors recorded shape on the one axis the engine can
// observe: a player for a corrupting plan implements Corrupter (the engine
// engages its receiver-side guard exactly as in the recorded run), one for
// a non-corrupting plan does not. Healer is implemented unconditionally —
// serving the recorded cumulative heal counts, which are 0 forever when
// the recorded plan never healed. Neither player is Resumable: a replay
// resumes from snapshots whose generator blobs are stripped, because the
// recorded stream itself is the generator state.

import (
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/schedule"
)

// playSchedule serves recorded schedule decisions.
type playSchedule struct {
	rec   *Recording
	start int // first record index with step > the resume step
	cur   int
}

func newPlaySchedule(rec *Recording, fromStep int) *playSchedule {
	p := &playSchedule{rec: rec}
	for p.start < len(rec.scheds) && rec.scheds[p.start].step <= fromStep {
		p.start++
	}
	return p
}

func (p *playSchedule) Name() string { return "replay" }

func (p *playSchedule) Begin(n, links int) { p.cur = p.start }

func (p *playSchedule) Step(t int, _ schedule.View, dec *schedule.Decision) {
	if p.cur >= len(p.rec.scheds) {
		failReplay("schedule stream exhausted at step %d", t)
	}
	s := &p.rec.scheds[p.cur]
	if s.step != t {
		failReplay("schedule stream at step %d, engine at step %d", s.step, t)
	}
	p.cur++
	dec.ActivateAll, dec.DeliverAll = s.activateAll, s.deliverAll
	if !s.activateAll {
		if len(s.activate) != len(dec.Activate) {
			failReplay("step %d activation mask covers %d nodes, run has %d", t, len(s.activate), len(dec.Activate))
		}
		copy(dec.Activate, s.activate)
	}
	if !s.deliverAll {
		if len(s.deliver) != len(dec.Deliver) {
			failReplay("step %d delivery counts cover %d links, run has %d", t, len(s.deliver), len(dec.Deliver))
		}
		copy(dec.Deliver, s.deliver)
	}
}

// playPlan serves recorded fault decisions, delivery fates, rewrites,
// settledness verdicts and heal counts.
type playPlan struct {
	rec *Recording

	startPlan, startFate, startSettled int
	initHealed                         int64
	// settledBefore says a recorded verdict at or before the resume step
	// was true: the engine stops asking once it hears true, so the
	// recording holds no later verdicts, and a run resumed after that
	// step — whose engine asks afresh — hears true.
	settledBefore bool

	planCur    int
	fateCur    int // index into rec.fates
	fateIdx    int // next fate within rec.fates[fateCur]
	rewriteIdx int // next rewrite within rec.fates[fateCur]
	settledCur int
	healed     int64
}

func newPlayPlan(rec *Recording, fromStep int, from *engine.Snapshot) fault.Plan {
	p := &playPlan{rec: rec}
	if from != nil {
		p.initHealed = from.Healed
	}
	for p.startPlan < len(rec.plans) && rec.plans[p.startPlan].step <= fromStep {
		p.startPlan++
	}
	for p.startFate < len(rec.fates) && rec.fates[p.startFate].step <= fromStep {
		p.startFate++
	}
	for p.startSettled < len(rec.settled) && rec.settled[p.startSettled].step <= fromStep {
		p.startSettled++
	}
	p.settledBefore = p.startSettled > 0 && rec.settled[p.startSettled-1].ok
	if rec.Corrupts {
		return &playCorrupter{*p}
	}
	return p
}

func (p *playPlan) Name() string { return "replay" }

func (p *playPlan) Begin(fault.Topology) {
	p.planCur, p.fateCur, p.settledCur = p.startPlan, p.startFate, p.startSettled
	p.fateIdx, p.rewriteIdx = 0, 0
	p.healed = p.initHealed
}

func (p *playPlan) Step(t int, _ fault.View, dec *fault.Decision) {
	if p.planCur >= len(p.rec.plans) {
		failReplay("fault-plan stream exhausted at step %d", t)
	}
	s := &p.rec.plans[p.planCur]
	if s.step != t {
		failReplay("fault-plan stream at step %d, engine at step %d", s.step, t)
	}
	p.planCur++
	if len(s.crash) != len(dec.Crash) || len(s.resend) != len(dec.Resend) {
		failReplay("step %d fault decision is for %d nodes/%d links, run has %d/%d",
			t, len(s.crash), len(s.resend), len(dec.Crash), len(dec.Resend))
	}
	copy(dec.Crash, s.crash)
	copy(dec.Recover, s.recover)
	copy(dec.Resend, s.resend)
	p.healed = s.healed
}

func (p *playPlan) Filter(t, link int) fault.Fate {
	for p.fateCur < len(p.rec.fates) && p.fateIdx >= len(p.rec.fates[p.fateCur].fates) {
		p.fateCur++
		p.fateIdx, p.rewriteIdx = 0, 0
	}
	if p.fateCur >= len(p.rec.fates) || p.rec.fates[p.fateCur].step != t {
		failReplay("fate stream has no fate for step %d link %d", t, link)
	}
	f := p.rec.fates[p.fateCur].fates[p.fateIdx]
	p.fateIdx++
	return f
}

func (p *playPlan) Settled() bool {
	if p.settledBefore {
		return true
	}
	if p.settledCur >= len(p.rec.settled) {
		failReplay("settled stream exhausted")
	}
	ok := p.rec.settled[p.settledCur].ok
	p.settledCur++
	return ok
}

func (p *playPlan) Healed() int64 { return p.healed }

// playCorrupter is the player for recordings whose plan could corrupt.
type playCorrupter struct{ playPlan }

func (p *playCorrupter) Corrupt(t, link int, _ string) string {
	if p.fateCur >= len(p.rec.fates) || p.rec.fates[p.fateCur].step != t ||
		p.rewriteIdx >= len(p.rec.fates[p.fateCur].rewrites) {
		failReplay("rewrite stream has no rewrite for step %d link %d", t, link)
	}
	msg := p.rec.fates[p.fateCur].rewrites[p.rewriteIdx]
	p.rewriteIdx++
	return msg
}
