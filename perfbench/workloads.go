package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/bisim"
	"weakmodels/internal/compile"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/replay"
	"weakmodels/internal/schedule"
	"weakmodels/internal/spec"
)

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	SyncN   int // sync-localtype expander nodes
	AsyncN  int // async-hostile preferential-attachment nodes
	TreeN   int // logic-tree random-tree nodes
	ReplayN int // record-replay preferential-attachment nodes
	Chars   int // logic-tree nodes whose characteristic formula is checked
}

var fullSizes = sizes{SyncN: 25_000, AsyncN: 3000, TreeN: 50_000, ReplayN: 2000, Chars: 4}

const (
	workers        = 2 // shard workers of the sharded workloads
	hostileSched   = "random:0.3"
	hostileFaults  = "byzantine:0.05+drop:0.1"
	checkpointStep = 64 // record-replay snapshot cadence
	charDepth      = 3  // logic-tree refinement depth = modal depth of χ
)

// inputs are everything one job receives, all derived from the run seed
// and the job's index. The program sees only these.
type inputs struct {
	Graph    string `json:"graph"`
	Ports    string `json:"ports"`
	Schedule string `json:"schedule,omitempty"`
	SchedSd  int64  `json:"schedule_seed,omitempty"`
	Faults   string `json:"faults,omitempty"`
	FaultSd  int64  `json:"fault_seed,omitempty"`
	Formula  string `json:"formula,omitempty"`
	Nodes    []int  `json:"nodes,omitempty"`
}

// subSeed derives a non-negative 31-bit seed for one input of one job
// (splitmix64 over the run seed, the job index and the input's salt).
func subSeed(seed int64, job, salt int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(job)*0xbf58476d1ce4e5b9 + uint64(salt)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 33)
}

const (
	saltGraph = iota + 1
	saltPorts
	saltSched
	saltFaults
	saltFormula
	saltNodes
)

// jobCtx is one job's inputs and, when traced, its tracer and wrapper
// statistics. Untraced jobs call the layers directly.
type jobCtx struct {
	in     inputs
	tr     *tracer
	digest bool // also hash the Results, to compare traced and untraced runs
	bufs   *buffers

	mach  machineStats
	sched scheduleStats
	plan  planStats
	reg   *obs.Metrics
}

// buffers are the in-memory writers record-replay reuses across jobs, so
// the heap does not regrow every job.
type buffers struct{ recording, journal bytes.Buffer }

// jobOut is what one job reports.
type jobOut struct {
	setup, total elapsed // from job start to the first engine/bisim call, and to the end
	outBytes     int64
	digest       string
	layer        map[string]float64 // per-layer metrics; traced jobs only
}

// stamp is a point in a job on two clocks: the wall clock and the CPU
// time of the whole process (user + system, every thread). CPU time leaves
// out the time the hypervisor ran other guests (steal), which moves wall
// times on shared VMs by up to a third within minutes.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// elapsed is the time between two stamps on both clocks.
type elapsed struct{ wall, cpu time.Duration }

func now() stamp { return stamp{time.Now(), processCPU()} }

func (s stamp) since() elapsed {
	return elapsed{time.Since(s.wall), processCPU() - s.cpu}
}

// processCPU returns the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkf reports a job whose outputs disagree with the reference.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}

// workload is one seeded scenario of the benchmark. Gated workloads are
// the ones BENCHMARK.json lists; the others run only when named.
type workload struct {
	name   string
	why    string
	gated  bool
	inputs func(seed int64, job int, sz sizes) inputs
	run    func(c *jobCtx) (*jobOut, error)
}

var workloads = []workload{
	{
		name: "sync-localtype",
		why:  "Theorem 17 local-type-max on a 2.5e4 expander, seq: term coding in δ and graph build dominate; no schedule, fault, recorder or logic work",
		inputs: func(seed int64, job int, sz sizes) inputs {
			return inputs{
				Graph: fmt.Sprintf("expander:%d,4,%d", sz.SyncN, subSeed(seed, job, saltGraph)),
				Ports: fmt.Sprintf("consistent:%d", subSeed(seed, job, saltPorts)),
			}
		},
		run: runSyncLocalType,
	},
	{
		name: "async-hostile",
		why:  "max-consensus on a PA graph under random:0.3 with byzantine+drop, 2 workers: schedule draws, fault fates, probe and merge dominate",
		inputs: func(seed int64, job int, sz sizes) inputs {
			return hostileInputs(seed, job, sz.AsyncN)
		},
		run: runAsyncHostile,
	},
	{
		name:  "logic-tree",
		why:   "random tree as an mm model: depth-3 graded refinement, characteristic formulas and a compiled graded formula run on the seq engine",
		gated: true,
		inputs: func(seed int64, job int, sz sizes) inputs {
			rng := rand.New(rand.NewSource(subSeed(seed, job, saltNodes)))
			nodes := make([]int, sz.Chars)
			for i := range nodes {
				nodes[i] = rng.Intn(sz.TreeN)
			}
			return inputs{
				Graph:   fmt.Sprintf("tree:%d,%d", sz.TreeN, subSeed(seed, job, saltGraph)),
				Ports:   "canonical",
				Formula: drawFormula(subSeed(seed, job, saltFormula)),
				Nodes:   nodes,
			}
		},
		run: runLogicTree,
	},
	{
		name:  "record-replay",
		why:   "the async-hostile configuration at pa:2000 recorded with checkpoints every 64 steps and a JSONL journal, then loaded and replayed from step 0",
		gated: true,
		inputs: func(seed int64, job int, sz sizes) inputs {
			return hostileInputs(seed, job, sz.ReplayN)
		},
		run: runRecordReplay,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func hostileInputs(seed int64, job, n int) inputs {
	return inputs{
		Graph:    fmt.Sprintf("pa:%d,3,%d", n, subSeed(seed, job, saltGraph)),
		Ports:    fmt.Sprintf("random:%d", subSeed(seed, job, saltPorts)),
		Schedule: hostileSched,
		SchedSd:  subSeed(seed, job, saltSched),
		Faults:   hostileFaults,
		FaultSd:  subSeed(seed, job, saltFaults),
	}
}

// drawFormula draws a graded mm formula over the degree propositions
// q1..q4 with modal depth exactly 3 and 8–12 distinct subformulas, so that
// every job's compiled run takes the same number of rounds and carries
// messages of similar size.
func drawFormula(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	for {
		f := logic.RandomFormulaForVariant(rng, 5, 4, true, kripke.VariantMM)
		if logic.ModalDepth(f) != charDepth {
			continue
		}
		in := logic.NewInterner()
		in.Intern(f)
		if n := in.Len(); n >= 8 && n <= 12 {
			return f.String()
		}
	}
}

func (c *jobCtx) newOut() *jobOut {
	if c.tr == nil {
		return &jobOut{}
	}
	return &jobOut{layer: map[string]float64{}}
}

// layerf records a per-layer metric of a traced job.
func (o *jobOut) layerf(name string, v float64) {
	if o.layer != nil {
		o.layer[name] = v
	}
}

// buildNumbered parses the graph and the numbering and compiles the
// numbering's routing table and BFS locality, which every engine run
// needs; calling them here puts their cost in set-up, where weakrun pays
// it too (inside engine.Run, before the first round).
func (c *jobCtx) buildNumbered() (*graph.Graph, *port.Numbering, error) {
	g, err := call(c.tr, "graph.build", func() (*graph.Graph, error) { return spec.ParseGraph(c.in.Graph) })
	if err != nil {
		return nil, nil, err
	}
	p, err := call(c.tr, "port.number", func() (*port.Numbering, error) { return spec.ParseNumbering(g, c.in.Ports) })
	if err != nil {
		return nil, nil, err
	}
	_, _ = call(c.tr, "port.routes", func() (*port.Routes, error) { return p.Routes(), nil })
	_, _ = call(c.tr, "port.locality", func() (*port.Locality, error) { return p.Locality(), nil })
	return g, p, nil
}

// buildMachine builds a registry algorithm for g.
func (c *jobCtx) buildMachine(name string, g *graph.Graph) machine.Machine {
	m, _ := call(c.tr, "machine.build", func() (machine.Machine, error) {
		return algorithms.Registry()[name](g.MaxDegree()), nil
	})
	return m
}

// wrap returns m behind the timing wrapper when the job is traced.
func (c *jobCtx) wrap(m machine.Machine) machine.Machine {
	if c.tr == nil {
		return m
	}
	return wrapMachine(m, &c.mach)
}

// hostileOptions parses the job's schedule and fault plan into async
// engine options, wrapped when traced.
func (c *jobCtx) hostileOptions() (engine.Options, error) {
	sched, err := schedule.Parse(c.in.Schedule, c.in.SchedSd)
	if err != nil {
		return engine.Options{}, err
	}
	plan, err := fault.Parse(c.in.Faults, c.in.FaultSd)
	if err != nil {
		return engine.Options{}, err
	}
	if c.tr != nil {
		sched, plan = wrapSchedule(sched, &c.sched), wrapPlan(plan, &c.plan)
	}
	return engine.Options{Executor: engine.ExecutorAsync, Workers: workers, Schedule: sched, Fault: plan, Obs: c.obs(nil)}, nil
}

// obs returns the Obs a run attaches: the journal sink when there is one,
// and a metrics registry when traced, so the engine's own round and
// shard histograms can be read back.
func (c *jobCtx) obs(sink obs.Sink) *obs.Obs {
	if c.tr == nil && sink == nil {
		return nil
	}
	o := &obs.Obs{Sink: sink}
	if c.tr != nil {
		if c.reg == nil {
			c.reg = obs.NewMetrics()
		}
		o.Metrics = c.reg
	}
	return o
}

// runEngine calls engine.Run, inside a span with allocation and GC deltas
// when traced.
func (c *jobCtx) runEngine(out *jobOut, m machine.Machine, p *port.Numbering, opts engine.Options) (*engine.Result, error) {
	if c.tr == nil {
		return engine.Run(m, p, opts)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := call(c.tr, "engine.run", func() (*engine.Result, error) { return engine.Run(m, p, opts) })
	runtime.ReadMemStats(&after)
	out.layerf("engine.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	out.layerf("engine.gc_cycles", float64(after.NumGC-before.NumGC))
	return res, err
}

// finishLayers fills the per-layer metrics a traced job shares across
// workloads: spans, wrapper aggregates and the engine's histograms.
func (c *jobCtx) finishLayers(out *jobOut, res *engine.Result) {
	if c.tr == nil {
		return
	}
	tr := c.tr
	for _, s := range []struct{ metric, span string }{
		{"graph.build_s", "graph.build"},
		{"port.number_s", "port.number"},
		{"port.routes_s", "port.routes"},
		{"port.locality_s", "port.locality"},
		{"kripke.build_s", "kripke.build"},
		{"bisim.refine_s", "bisim.refine"},
		{"bisim.char_s", "bisim.char"},
		{"logic.eval_s", "logic.eval"},
		{"compile.s", "compile"},
		{"replay.finish_s", "replay.finish"},
		{"replay.load_s", "replay.load"},
		{"replay.replay_s", "replay.replay"},
		{"engine.run_s", "engine.run"},
	} {
		out.layerf(s.metric, tr.seconds(s.span))
	}
	tr.aggregate("machine.send", c.mach.send.calls.Load(), c.mach.send.nanos.Load())
	tr.aggregate("machine.step", c.mach.step.calls.Load(), c.mach.step.nanos.Load())
	tr.aggregate("schedule.step", c.sched.step.calls.Load(), c.sched.step.nanos.Load())
	tr.aggregate("fault.filter", c.plan.filter.calls.Load(), c.plan.filter.nanos.Load())
	tr.aggregate("fault.other", c.plan.other.calls.Load(), c.plan.other.nanos.Load())

	steps := float64(c.mach.step.calls.Load())
	out.layerf("machine.send_calls", float64(c.mach.send.calls.Load()))
	out.layerf("machine.send_s", c.mach.send.seconds())
	out.layerf("machine.step_calls", steps)
	out.layerf("machine.step_s", c.mach.step.seconds())
	out.layerf("machine.inbox_bytes", float64(c.mach.inboxBytes.Load()))
	out.layerf("machine.useful_step_ratio", ratio(float64(c.mach.changed.Load()), steps))

	acts := float64(c.sched.activations.Load())
	out.layerf("schedule.step_calls", float64(c.sched.step.calls.Load()))
	out.layerf("schedule.step_s", c.sched.step.seconds())
	out.layerf("schedule.activations", acts)
	out.layerf("fault.filter_calls", float64(c.plan.filter.calls.Load()))
	out.layerf("fault.s", c.plan.filter.seconds()+c.plan.other.seconds())

	hist := func(name string) float64 { return c.reg.Histogram(name, "", nil).Sum() / 1e6 }
	runS := out.layer["engine.run_s"]
	roundS := hist(engine.MetricRoundUs)
	out.layerf("engine.round_s", roundS)
	out.layerf("engine.shard_step_s", hist(engine.MetricShardStepUs))
	out.layerf("engine.merge_s", hist(engine.MetricShardMergeUs))
	out.layerf("engine.outside_round_s", runS-roundS)
	if res != nil {
		var fires int64
		for _, f := range res.Fires {
			fires += f
		}
		out.layerf("engine.steps", float64(res.Rounds))
		out.layerf("engine.fires", float64(fires))
		out.layerf("engine.message_bytes", float64(res.MessageBytes))
		out.layerf("schedule.fire_ratio", ratio(float64(fires), acts))
		out.layerf("fault.drops", float64(res.Drops))
		out.layerf("fault.corruptions", float64(res.Corruptions))
		// The shard workers share the benchmark's one P, so their machine
		// calls do not overlap and the summed time is the wall interval
		// they cover inside engine.run.
		machineS := c.mach.send.seconds() + c.mach.step.seconds()
		out.layerf("engine.self_s", max(0, runS-machineS-c.sched.step.seconds()-out.layer["fault.s"]))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hashResult folds the parts of a Result every executor and worker count
// must reproduce into h (Shards is telemetry and excluded).
func hashResult(h hash.Hash, res *engine.Result) {
	fmt.Fprintf(h, "rounds=%d bytes=%d fix=%v drops=%d dups=%d corr=%d crash=%d rec=%d retx=%d healed=%d\n",
		res.Rounds, res.MessageBytes, res.Fixpoint, res.Drops, res.Dups, res.Corruptions,
		res.Crashes, res.Recoveries, res.Retransmits, res.Healed)
	for v, o := range res.Output {
		fmt.Fprintf(h, "%d:%q:%v", v, o, res.States[v])
		if res.Fires != nil {
			fmt.Fprintf(h, ":%d", res.Fires[v])
		}
		if res.Alive != nil {
			fmt.Fprintf(h, ":%v", res.Alive[v])
		}
		h.Write([]byte{'\n'})
	}
}

func (c *jobCtx) digestOf(res *engine.Result) string {
	if !c.digest {
		return ""
	}
	h := sha256.New()
	hashResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

func runSyncLocalType(c *jobCtx) (*jobOut, error) {
	out := c.newOut()
	start := now()
	g, p, err := c.buildNumbered()
	if err != nil {
		return nil, err
	}
	m := c.wrap(c.buildMachine("local-type-max", g))
	opts := engine.Options{Executor: engine.ExecutorSeq, Obs: c.obs(nil)}
	out.setup = start.since()
	res, err := c.runEngine(out, m, p, opts)
	out.total = start.since()
	if err != nil {
		return out, err
	}
	c.finishLayers(out, res)
	out.layerf("graph.edges", float64(g.M()))
	out.digest = c.digestOf(res)
	return out, checkLocalTypeMax(g, p, res)
}

// checkLocalTypeMax recomputes Theorem 17 from port.LocalType: a node
// outputs 1 iff no neighbour's local type is lexicographically larger
// (shorter tuples first, as the machine's term order has it).
func checkLocalTypeMax(g *graph.Graph, p *port.Numbering, res *engine.Result) error {
	delta := g.MaxDegree()
	types := make([][]int, g.N())
	for v := range types {
		types[v] = port.LocalType(p, v, delta)[:g.Degree(v)]
	}
	cmpType := func(a, b []int) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	}
	for v := range types {
		want := machine.Output("1")
		for _, u := range g.Neighbors(v) {
			if cmpType(types[u], types[v]) > 0 {
				want = "0"
				break
			}
		}
		if res.Output[v] != want {
			return checkf("node %d outputs %q, local-type reference %q", v, res.Output[v], want)
		}
	}
	return nil
}

func runAsyncHostile(c *jobCtx) (*jobOut, error) {
	out := c.newOut()
	start := now()
	g, p, err := c.buildNumbered()
	if err != nil {
		return nil, err
	}
	m := c.wrap(c.buildMachine("max-consensus", g))
	opts, err := c.hostileOptions()
	if err != nil {
		return nil, err
	}
	out.setup = start.since()
	res, err := c.runEngine(out, m, p, opts)
	out.total = start.since()
	if err != nil {
		return out, err
	}
	c.finishLayers(out, res)
	out.layerf("graph.edges", float64(g.M()))
	out.digest = c.digestOf(res)
	return out, checkMaxConsensus(g, res)
}

// checkMaxConsensus: on a connected graph every node must stabilise at
// the maximum degree, and the run must end at a detected fixpoint.
func checkMaxConsensus(g *graph.Graph, res *engine.Result) error {
	if !res.Fixpoint {
		return checkf("run ended without a fixpoint after %d steps", res.Rounds)
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	for v, s := range res.States {
		if d, ok := s.(int); !ok || d != maxDeg {
			return checkf("node %d stabilised at %v, max degree is %d", v, s, maxDeg)
		}
	}
	return nil
}

func runLogicTree(c *jobCtx) (*jobOut, error) {
	out := c.newOut()
	start := now()
	g, p, err := c.buildNumbered()
	if err != nil {
		return nil, err
	}
	model, _ := call(c.tr, "kripke.build", func() (*kripke.Model, error) {
		m := kripke.FromPorts(p, kripke.VariantMM)
		m.CSR()
		return m, nil
	})
	delta := g.MaxDegree()
	o := c.obs(nil)
	out.setup = start.since()

	part, _ := call(c.tr, "bisim.refine", func() (bisim.Partition, error) {
		return bisim.Compute(model, bisim.Options{Graded: true, MaxRounds: charDepth, Workers: workers, Obs: o}), nil
	})
	in := logic.NewInterner()
	ids, _ := call(c.tr, "bisim.char", func() ([]logic.ID, error) {
		return bisim.CharacteristicIDs(model, charDepth, delta, true, in), nil
	})
	ev := logic.NewEvaluator(model, in)
	ev.AttachObs(o)
	// Evaluate and verify χ as mcheck -char does: its truth set must be
	// exactly the node's depth-3 class of the refinement.
	var charErr error
	for _, node := range c.in.Nodes {
		row, _ := call(c.tr, "logic.eval", func() ([]uint64, error) { return ev.Eval(ids[node]), nil })
		for v := 0; v < model.N() && charErr == nil; v++ {
			if got, want := row[v>>6]&(1<<(uint(v)&63)) != 0, part[v] == part[node]; got != want {
				charErr = checkf("χ of node %d: state %d satisfies it = %v, same class = %v", node, v, got, want)
			}
		}
	}

	f, err := logic.Parse(c.in.Formula)
	if err != nil {
		return nil, err
	}
	cm, err := call(c.tr, "compile", func() (machine.Machine, error) {
		m, _, err := compile.MachineFromFormula(f, delta)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	res, err := c.runEngine(out, c.wrap(cm), p, engine.Options{Executor: engine.ExecutorSeq, Obs: o})
	out.total = start.since()
	if err != nil {
		return out, err
	}
	c.finishLayers(out, res)
	out.layerf("graph.edges", float64(g.M()))
	out.layerf("bisim.classes", float64(part.NumClasses()))
	out.layerf("logic.dag_nodes", float64(in.Len()))
	if c.reg != nil {
		out.layerf("bisim.rounds", float64(c.reg.Counter(bisim.MetricRefineRounds, "").Value()))
	}
	if c.digest {
		h := sha256.New()
		hashResult(h, res)
		fmt.Fprintf(h, "classes=%d dag=%d %v\n", part.NumClasses(), in.Len(), part)
		out.digest = hex.EncodeToString(h.Sum(nil))
	}
	if charErr != nil {
		return out, charErr
	}
	return out, checkTheorem2(model, f, res)
}

// checkTheorem2 compares the compiled machine's outputs with the bitset
// Evaluator's truth set of the formula on the same model (Theorem 2).
func checkTheorem2(model *kripke.Model, f logic.Formula, res *engine.Result) error {
	in := logic.NewInterner()
	ev := logic.NewEvaluator(model, in)
	truth := ev.Bools(in.Intern(f))
	for v, holds := range truth {
		want := machine.Output("0")
		if holds {
			want = "1"
		}
		if res.Output[v] != want {
			return checkf("compiled %s outputs %q at node %d, evaluator says %q", f, res.Output[v], v, want)
		}
	}
	return nil
}

func runRecordReplay(c *jobCtx) (*jobOut, error) {
	out := c.newOut()
	c.bufs.recording.Reset()
	c.bufs.journal.Reset()
	var recW, journalW io.Writer = &c.bufs.recording, &c.bufs.journal
	var recT, journalT *timedWriter
	if c.tr != nil {
		recT, journalT = &timedWriter{w: recW}, &timedWriter{w: journalW}
		recW, journalW = recT, journalT
	}
	start := now()
	g, p, err := c.buildNumbered()
	if err != nil {
		return nil, err
	}
	// The wrapper times the recorded live run only, so machine.* and
	// engine.* describe the same run; the replay uses the bare machine.
	m := c.buildMachine("max-consensus", g)
	opts, err := c.hostileOptions()
	if err != nil {
		return nil, err
	}
	journal := obs.NewJournalWriter(journalW)
	opts.Obs = c.obs(journal)
	opts, rec, err := replay.New(opts, checkpointStep, recW)
	if err != nil {
		return nil, err
	}
	out.setup = start.since()
	live, err := c.runEngine(out, c.wrap(m), p, opts)
	if err != nil {
		out.total = start.since()
		return out, err
	}
	if _, err := call(c.tr, "replay.finish", func() (struct{}, error) { return struct{}{}, rec.Finish(live) }); err != nil {
		return nil, err
	}
	if err := journal.Flush(); err != nil {
		return nil, err
	}
	loaded, err := call(c.tr, "replay.load", func() (*replay.Recording, error) {
		return replay.Load(bytes.NewReader(c.bufs.recording.Bytes()), m, p)
	})
	if err != nil {
		return nil, err
	}
	replayed, err := call(c.tr, "replay.replay", func() (*engine.Result, error) {
		return loaded.Replay(m, p, engine.Options{Workers: workers}, nil)
	})
	out.total = start.since()
	if err != nil {
		return out, err
	}
	out.outBytes = int64(c.bufs.recording.Len() + c.bufs.journal.Len())
	c.finishLayers(out, live)
	out.layerf("graph.edges", float64(g.M()))
	out.layerf("replay.snapshots", float64(len(rec.Recording().Snapshots())))
	if c.tr != nil {
		out.layerf("obs.journal_bytes", float64(journalT.bytes.Load()))
		out.layerf("obs.journal_write_s", journalT.seconds())
		out.layerf("replay.record_bytes", float64(recT.bytes.Load()))
		out.layerf("replay.record_write_s", recT.seconds())
		c.tr.aggregate("obs.journal_write", journalT.calls.Load(), journalT.nanos.Load())
		c.tr.aggregate("replay.record_write", recT.calls.Load(), recT.nanos.Load())
	}
	if c.digest {
		h := sha256.New()
		hashResult(h, live)
		hashResult(h, replayed)
		h.Write(c.bufs.recording.Bytes())
		h.Write(c.bufs.journal.Bytes())
		out.digest = hex.EncodeToString(h.Sum(nil))
	}
	if err := checkMaxConsensus(g, live); err != nil {
		return out, err
	}
	return out, checkReplayed(live, replayed)
}

// checkReplayed: the replay must reproduce the live run's outputs, step
// count, message volume and fault counters.
func checkReplayed(live, got *engine.Result) error {
	type summary struct {
		Rounds                                        int
		MessageBytes                                  int64
		Fixpoint                                      bool
		Drops, Dups, Corruptions, Crashes, Recoveries int64
		Retransmits, Healed                           int64
	}
	sum := func(r *engine.Result) summary {
		return summary{r.Rounds, r.MessageBytes, r.Fixpoint, r.Drops, r.Dups, r.Corruptions,
			r.Crashes, r.Recoveries, r.Retransmits, r.Healed}
	}
	if a, b := sum(live), sum(got); a != b {
		return checkf("replay %+v differs from the live run %+v", b, a)
	}
	if !slices.Equal(live.Output, got.Output) {
		return checkf("replayed outputs differ from the live run")
	}
	if !slices.Equal(live.States, got.States) {
		return checkf("replayed states differ from the live run")
	}
	return nil
}
