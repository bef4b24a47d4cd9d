package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// TestAsyncSynchronousEquivalence is the correctness anchor of the async
// executor: under the Synchronous schedule it must be bit-identical to
// ExecutorSeq across the experiment suite — same Output, Rounds,
// MessageBytes and Trace when the sequential run halts. When it does not,
// async must either fail with the same ErrNoHalt or stop at a fixpoint
// round r that the sequential trajectory confirms: seq's states are
// constant from round r to the budget and equal async's final States.
func TestAsyncSynchronousEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, g := range suiteGraphs() {
		delta := g.MaxDegree()
		numberings := map[string]*port.Numbering{
			"canonical":  port.Canonical(g),
			"random":     port.Random(g, rng),
			"consistent": port.RandomConsistent(g, rng),
		}
		for _, m := range suiteMachines(delta) {
			for pname, p := range numberings {
				label := fmt.Sprintf("%s on %v ports=%s", m.Name(), g, pname)
				seq, seqErr := Run(m, p, Options{MaxRounds: equivalenceBudget, RecordTrace: true})
				// Both the implicit default schedule and an explicit
				// Synchronous must match.
				for _, sched := range []schedule.Schedule{nil, schedule.Synchronous()} {
					async, asyncErr := Run(m, p, Options{
						MaxRounds:   equivalenceBudget,
						RecordTrace: true,
						Executor:    ExecutorAsync,
						Schedule:    sched,
					})
					if seqErr != nil {
						if !errors.Is(seqErr, ErrNoHalt) {
							t.Fatalf("%s: unexpected seq error %v", label, seqErr)
						}
						if asyncErr != nil {
							if !errors.Is(asyncErr, ErrNoHalt) {
								t.Fatalf("%s: unexpected async error %v", label, asyncErr)
							}
							continue
						}
						if !async.Fixpoint {
							t.Fatalf("%s: seq fails with ErrNoHalt, async halted in %d rounds", label, async.Rounds)
						}
						checkSeqConstantFrom(t, label, m, p, async.Rounds, async.States)
						continue
					}
					if asyncErr != nil {
						t.Fatalf("%s: seq halted, async err %v", label, asyncErr)
					}
					if seq.Rounds != async.Rounds || seq.MessageBytes != async.MessageBytes {
						t.Fatalf("%s: telemetry differs (rounds %d/%d bytes %d/%d)",
							label, seq.Rounds, async.Rounds, seq.MessageBytes, async.MessageBytes)
					}
					if !reflect.DeepEqual(seq.Output, async.Output) {
						t.Fatalf("%s: outputs differ\nseq:   %v\nasync: %v",
							label, seq.Output, async.Output)
					}
					if !reflect.DeepEqual(seq.Trace, async.Trace) {
						t.Fatalf("%s: traces differ", label)
					}
					if async.Fixpoint {
						t.Fatalf("%s: spurious fixpoint on a halting run", label)
					}
					// Under the synchronous schedule every node fires once
					// per step.
					for v, f := range async.Fires {
						if f != int64(async.Rounds) {
							t.Fatalf("%s: node %d fired %d times in %d rounds", label, v, f, async.Rounds)
						}
					}
				}
			}
		}
	}
}

// checkSeqConstantFrom confirms an async fixpoint at round r against the
// sequential executor, which cannot report one: seq is rerun to the
// equivalence budget with a checkpoint every round, and its state vector
// must equal want at every round from r to the budget.
func checkSeqConstantFrom(t *testing.T, label string, m machine.Machine, p *port.Numbering, r int, want []machine.State) {
	t.Helper()
	seen := 0
	_, err := Run(m, p, Options{MaxRounds: equivalenceBudget, Checkpoint: &CheckpointOptions{
		Every: 1,
		Sink: func(s *Snapshot) error {
			if s.Step >= r {
				seen++
				if !reflect.DeepEqual(s.States, want) {
					return fmt.Errorf("seq state at round %d differs from async's fixpoint at round %d", s.Step, r)
				}
			}
			return nil
		},
	}})
	if !errors.Is(err, ErrNoHalt) {
		t.Fatalf("%s: seq rerun: %v", label, err)
	}
	if wantSeen := equivalenceBudget - r + 1; seen != wantSeen {
		t.Fatalf("%s: seq rerun checked %d rounds from %d, want %d", label, seen, r, wantSeen)
	}
}

// undilatedSchedule is a custom schedule without a Dilation method, to
// exercise the assume-n fallback of asyncStepBudget.
type undilatedSchedule struct{ schedule.Schedule }

func TestAsyncStepBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		sched schedule.Schedule
		n     int
		want  int
	}{
		{"explicit is literal", Options{MaxRounds: 7}, schedule.RoundRobin(), 1_000_000, 7},
		{"sync keeps the round budget", Options{}, schedule.Synchronous(), 1_000_000, DefaultMaxRounds},
		{"roundrobin scales by n", Options{}, schedule.RoundRobin(), 50, 50 * DefaultMaxRounds},
		{"scaled budget is capped", Options{}, schedule.RoundRobin(), 12_000, maxDefaultAsyncSteps},
		{"adversary scales by 2·fair", Options{}, schedule.Adversary(1, 3), 50, 6 * DefaultMaxRounds},
		{"unknown schedule assumes n", Options{}, undilatedSchedule{schedule.Synchronous()}, 50, 50 * DefaultMaxRounds},
	} {
		if got := asyncStepBudget(tc.opts, tc.sched, tc.n); got != tc.want {
			t.Errorf("%s: asyncStepBudget = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// asyncFairSchedules builds one fresh instance of every fair non-sync
// generator; schedules are stateful, so each run gets its own.
func asyncFairSchedules(seed int64) []schedule.Schedule {
	return []schedule.Schedule{
		schedule.RoundRobin(),
		schedule.RandomSubset(seed, 0.4),
		schedule.BoundedStaleness(seed, 2),
		schedule.Adversary(seed, 3),
	}
}

// TestAsyncFairSchedulesReachSynchronousOutputs: the Kahn discipline makes
// the k-th firing of a node compute the synchronous state x_k, so under any
// fair schedule a halting machine must reach exactly the sequential
// executor's outputs — only latency and activation counts may differ.
func TestAsyncFairSchedulesReachSynchronousOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []*graph.Graph{
		graph.Path(6),
		graph.Cycle(7),
		graph.Star(5),
		graph.Petersen(),
		graph.Grid(3, 3),
		graph.DisjointUnion(graph.Cycle(3), graph.Path(3)),
	}
	for _, g := range graphs {
		delta := g.MaxDegree()
		numberings := map[string]*port.Numbering{
			"canonical": port.Canonical(g),
			"random":    port.Random(g, rng),
		}
		for _, m := range suiteMachines(delta) {
			for pname, p := range numberings {
				seq, err := Run(m, p, Options{MaxRounds: 100})
				if err != nil {
					continue // non-halting on this (graph, numbering): covered by the sync-equivalence test
				}
				for _, sched := range asyncFairSchedules(23) {
					label := fmt.Sprintf("%s on %v ports=%s schedule=%s", m.Name(), g, pname, sched.Name())
					async, err := Run(m, p, Options{
						MaxRounds: 50_000,
						Executor:  ExecutorAsync,
						Schedule:  sched,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(seq.Output, async.Output) {
						t.Fatalf("%s: outputs differ\nseq:   %v\nasync: %v",
							label, seq.Output, async.Output)
					}
					if async.Fixpoint {
						t.Fatalf("%s: spurious fixpoint on a halting run", label)
					}
				}
			}
		}
	}
}

// TestAsyncSeededDeterminism is the reproducibility property the
// -schedule/-seed flags promise: the same (schedule, seed) pair replays a
// bit-identical run — same outputs, telemetry, trace and per-node
// activation counts — across repeated invocations and across GOMAXPROCS
// settings.
func TestAsyncSeededDeterminism(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Random(g, rand.New(rand.NewSource(5)))
	m := degreeSum(g.MaxDegree())
	specs := []string{"roundrobin", "random:0.3", "staleness:2", "adversary:4"}
	const seed = 77
	for _, spec := range specs {
		runOnce := func() *Result {
			sched, err := schedule.Parse(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(m, p, Options{
				MaxRounds:   50_000,
				RecordTrace: true,
				Executor:    ExecutorAsync,
				Schedule:    sched,
			})
			if err != nil {
				t.Fatalf("schedule %s: %v", spec, err)
			}
			return res
		}
		base := runOnce()
		repeat := runOnce()
		if !reflect.DeepEqual(base, repeat) {
			t.Fatalf("schedule %s seed %d: repeated run diverged", spec, seed)
		}
		prev := runtime.GOMAXPROCS(0)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got := runOnce()
			if !reflect.DeepEqual(base, got) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("schedule %s seed %d: run diverged under GOMAXPROCS=%d", spec, seed, procs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestAsyncFixpointDetection: where the synchronous executors can only
// ErrNoHalt on a stabilising machine (algorithms.MaxConsensus), the async
// executor must detect the global fixpoint and stop early, under the
// synchronous schedule and under adversarial ones alike.
func TestAsyncFixpointDetection(t *testing.T) {
	g := graph.Caterpillar(4, 2)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	const budget = 50_000

	if _, err := Run(m, p, Options{MaxRounds: 200}); !errors.Is(err, ErrNoHalt) {
		t.Fatalf("sequential executor: err = %v, want ErrNoHalt", err)
	}
	for _, sched := range append(asyncFairSchedules(11), schedule.Synchronous()) {
		res, err := Run(m, p, Options{MaxRounds: budget, Executor: ExecutorAsync, Schedule: sched})
		if err != nil {
			t.Fatalf("schedule %s: %v", sched.Name(), err)
		}
		if !res.Fixpoint {
			t.Fatalf("schedule %s: fixpoint not detected (rounds=%d)", sched.Name(), res.Rounds)
		}
		if res.Rounds >= budget {
			t.Fatalf("schedule %s: fixpoint only at the budget", sched.Name())
		}
		for v, out := range res.Output {
			if out != "" {
				t.Fatalf("schedule %s: non-halted node %d has output %q", sched.Name(), v, out)
			}
		}
	}
}

// TestAsyncRoundRobinLatency pins the central-daemon semantics: one node
// fires per step, so a 1-round algorithm on n nodes halts in exactly n
// steps with every node having fired once.
func TestAsyncRoundRobinLatency(t *testing.T) {
	g := graph.Cycle(5)
	m := degreeSum(g.MaxDegree())
	res, err := Run(m, port.Canonical(g), Options{
		Executor: ExecutorAsync,
		Schedule: schedule.RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != g.N() {
		t.Errorf("rounds = %d, want %d", res.Rounds, g.N())
	}
	for v, f := range res.Fires {
		if f != 1 {
			t.Errorf("node %d fired %d times, want 1", v, f)
		}
	}
}

// dribble is a deliberately awkward schedule: it activates everything every
// step but delivers only one message on one link per step, exercising the
// partial-delivery path and the clamping of oversized requests.
type dribble struct{ links int }

func (d *dribble) Name() string           { return "dribble" }
func (d *dribble) Begin(nodes, links int) { d.links = links }
func (d *dribble) Step(t int, view schedule.View, dec *schedule.Decision) {
	dec.ActivateAll = true
	dec.Deliver[(t-1)%d.links] = 1 << 20 // clamped to the in-flight count
}

func TestAsyncPartialDelivery(t *testing.T) {
	g := graph.Star(4)
	m := degreeSum(g.MaxDegree())
	seq, err := Run(m, port.Canonical(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, port.Canonical(g), Options{
		MaxRounds: 10_000,
		Executor:  ExecutorAsync,
		Schedule:  &dribble{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Output, res.Output) {
		t.Fatalf("outputs differ\nseq:   %v\nasync: %v", seq.Output, res.Output)
	}
}

// TestScheduleRequiresAsyncExecutor: supplying a schedule to a synchronous
// executor is a configuration error, not a silent ignore.
func TestScheduleRequiresAsyncExecutor(t *testing.T) {
	g := graph.Path(3)
	m := degreeSum(g.MaxDegree())
	for _, exec := range []Executor{ExecutorSeq, ExecutorPool} {
		_, err := Run(m, port.Canonical(g), Options{Executor: exec, Schedule: schedule.RoundRobin()})
		if err == nil {
			t.Errorf("executor %v accepted Options.Schedule", exec)
		}
	}
}

// TestAsyncNoHalt: the async executor reports ErrNoHalt at the step budget
// when neither halting nor a fixpoint terminates the run. The spinner keeps
// changing state, so fixpoint detection can never fire.
func TestAsyncNoHalt(t *testing.T) {
	spinner := &machine.Func{
		MachineName:  "spinner",
		MachineClass: machine.ClassSB,
		MaxDeg:       2,
		InitFunc:     func(int) machine.State { return 0 },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc:     func(machine.State, int) machine.Message { return machine.NoMessage },
		StepFunc:     func(s machine.State, _ []machine.Message) machine.State { return (s.(int) + 1) % 3 },
	}
	_, err := Run(spinner, port.Canonical(graph.Cycle(3)), Options{MaxRounds: 500, Executor: ExecutorAsync})
	if !errors.Is(err, ErrNoHalt) {
		t.Errorf("err = %v, want ErrNoHalt", err)
	}
}
