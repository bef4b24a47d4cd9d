package engine

import (
	"errors"
	"fmt"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// fullProbe is the global fixpoint probe the incremental detector
// replaced, kept as its oracle: every node checked from scratch.
func fullProbe(as *asyncState) bool {
	bufs := as.newBufs()
	for v := range as.states {
		if !as.nodeAtFixpoint(v, &bufs) {
			return false
		}
	}
	return true
}

// TestAsyncFixpointOracle pins the incremental detector to the full probe:
// at every step of every (graph, schedule, fault plan, shard count) cell
// the detector's verdict must equal "the plan is settled and the full
// probe holds", and a run ending at a fixpoint must end at the first such
// step. CI runs it under -race at GOMAXPROCS 1 and 4.
func TestAsyncFixpointOracle(t *testing.T) {
	defer func() { fixpointOracle = nil }()
	const budget = 4_000
	schedSpecs := []string{"sync", "roundrobin", "random:0.3", "adversary:3"}
	faultSpecs := []string{
		"",
		"drop:0.3,31,40",
		"byzantine:0.3,41,40",
		"crash:1,43,40", // crash-recover with reset
		"partition:3,42,40",
		"retransmit:2,44,40",
		"drop:0.2,51,40+crash:1,52,40+retransmit:1,53,40",
	}
	for _, g := range suiteGraphs() {
		delta := g.MaxDegree()
		p := port.Canonical(g)
		machines := []machine.Machine{
			inboxEcho(delta, machine.ClassMV),      // halts
			algorithms.MaxConsensus(delta),         // stabilises
			algorithms.LeafProximityStab(delta, 3), // self-stabilising, recomputes from inbox
		}
		for _, m := range machines {
			for _, sspec := range schedSpecs {
				for _, fspec := range faultSpecs {
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("%s on %v schedule=%s faults=%q workers=%d",
							m.Name(), g, sspec, fspec, workers)
						checkFixpointOracle(t, label, m, p, sspec, fspec, workers, budget)
					}
				}
			}
		}
	}
}

func checkFixpointOracle(t *testing.T, label string, m machine.Machine, p *port.Numbering, sspec, fspec string, workers, budget int) {
	t.Helper()
	sched, err := schedule.Parse(sspec, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(fspec, 9)
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	var mismatch error
	fixpointOracle = func(as *asyncState, step int, fix bool) {
		want := (as.plan == nil || as.plan.Settled()) && fullProbe(as)
		if want && first == 0 {
			first = step
		}
		if fix != want && mismatch == nil {
			mismatch = fmt.Errorf("step %d: detector says %v, settled full probe says %v", step, fix, want)
		}
	}
	res, err := Run(m, p, Options{
		MaxRounds: budget,
		Executor:  ExecutorAsync,
		Schedule:  sched,
		Fault:     plan,
		Workers:   workers,
	})
	fixpointOracle = nil
	if mismatch != nil {
		t.Fatalf("%s: %v", label, mismatch)
	}
	if err != nil {
		if !errors.Is(err, ErrNoHalt) {
			t.Fatalf("%s: %v", label, err)
		}
		return
	}
	switch {
	case res.Fixpoint && res.Rounds != first:
		t.Fatalf("%s: fixpoint at step %d, oracle first holds at step %d", label, res.Rounds, first)
	case !res.Fixpoint && first != 0:
		t.Fatalf("%s: oracle holds at step %d but the run went on to halt at step %d", label, first, res.Rounds)
	}
}

// TestAsyncFixpointLatency is the regression test for late termination
// reporting: under the synchronous schedule max-consensus stabilises once
// the maximum degree has flooded out from a hub, within the hub's
// eccentricity (at most the diameter), so the async executor must report
// the fixpoint within that + 2 steps — not at a probe cadence tied to n.
func TestAsyncFixpointLatency(t *testing.T) {
	g, err := graph.PreferentialAttachment(10_000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(algorithms.MaxConsensus(g.MaxDegree()), port.Canonical(g), Options{
		MaxRounds: 50,
		Executor:  ExecutorAsync,
		Schedule:  schedule.Synchronous(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := 0
	for v := range g.N() {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	ecc := eccentricity(g, hub)
	if !res.Fixpoint || res.Rounds > ecc+2 {
		t.Fatalf("fixpoint=%v at step %d, want a fixpoint within the hub's eccentricity %d + 2",
			res.Fixpoint, res.Rounds, ecc)
	}
}

// eccentricity is the BFS distance from s to the farthest node of its
// component.
func eccentricity(g *graph.Graph, s int) int {
	dist := make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist[queue[len(queue)-1]]
}
