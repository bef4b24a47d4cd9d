// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload for a fixed time through the same
// public calls the CLIs make, checks every job's outputs against an
// independent reference, and prints one JSON result line last:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced jobs. With
// --trace 1 it alternates untraced and traced jobs on the same inputs,
// requires their Results to be identical, reports the per-layer metrics
// of the traced ones and writes their spans out when it ends. See
// README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric a traced run prints, with its
// unit. A workload that does not call a layer reports 0 for it.
var layerUnits = []struct{ name, unit string }{
	{"graph.build_s", "s"}, {"graph.edges", "count"},
	{"port.number_s", "s"}, {"port.routes_s", "s"}, {"port.locality_s", "s"},
	{"machine.send_calls", "count"}, {"machine.send_s", "s"},
	{"machine.step_calls", "count"}, {"machine.step_s", "s"},
	{"machine.inbox_bytes", "bytes"}, {"machine.useful_step_ratio", "ratio"},
	{"engine.run_s", "s"}, {"engine.self_s", "s"}, {"engine.round_s", "s"},
	{"engine.shard_step_s", "s"}, {"engine.merge_s", "s"}, {"engine.outside_round_s", "s"},
	{"engine.steps", "count"}, {"engine.fires", "count"}, {"engine.message_bytes", "bytes"},
	{"engine.alloc_mb", "MB"}, {"engine.gc_cycles", "count"},
	{"schedule.step_calls", "count"}, {"schedule.step_s", "s"},
	{"schedule.activations", "count"}, {"schedule.fire_ratio", "ratio"},
	{"fault.drops", "count"}, {"fault.corruptions", "count"},
	{"fault.filter_calls", "count"}, {"fault.s", "s"},
	{"obs.journal_bytes", "bytes"}, {"obs.journal_write_s", "s"},
	{"replay.record_bytes", "bytes"}, {"replay.record_write_s", "s"},
	{"replay.snapshots", "count"}, {"replay.finish_s", "s"},
	{"replay.load_s", "s"}, {"replay.replay_s", "s"},
	{"kripke.build_s", "s"},
	{"bisim.refine_s", "s"}, {"bisim.rounds", "count"}, {"bisim.classes", "count"}, {"bisim.char_s", "s"},
	{"logic.dag_nodes", "count"}, {"logic.eval_s", "s"},
	{"compile.s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"job_s", "s"}, {"setup_wall_s", "s"}, {"job_s_tail", "s"}, {"output_mb", "MB"},
}

type options struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames(false))
	seed := fs.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := fs.Int("seconds", 10, "how long the run measures, 1..120")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced jobs; 1: per-layer metrics of traced jobs")
	spanDir := fs.String("span-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := workloadByName(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q; valid: %s", *name, workloadNames(false))
	}
	if *seconds < 1 || *seconds > 120 {
		return options{}, fmt.Errorf("--seconds must be in 1..120, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: *spanDir}, nil
}

// workloadNames lists the workloads, only the gated ones when gated is
// true.
func workloadNames(gated bool) string {
	var names []string
	for _, w := range workloads {
		if w.gated || !gated {
			names = append(names, w.name)
		}
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	// One P: with a second one, idle-priority GC mark workers and spinning
	// scheduler threads add CPU time that depends on timing, not on the
	// program's work. The sharded workloads still run two shard workers.
	runtime.GOMAXPROCS(1)
	res, err := measure(opts, fullSizes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// jobRecord is one finished job of the run.
type jobRecord struct {
	out *jobOut
	err error
}

// measure runs jobs of one workload for opts.seconds (at least one job,
// or one untraced/traced pair), prints the header and the
// human-readable report to w and returns the result line.
func measure(opts options, sz sizes, w io.Writer) (*result, error) {
	wl := opts.workload
	hdr := newHeader(opts, sz)
	if err := printJSON(w, "header", hdr); err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	bufs := &buffers{}
	var plain, traced []jobRecord
	failed := 0
	origin := time.Now()
	budget := time.Duration(opts.seconds) * time.Second
	// A new job starts only when one as long as the last still fits in
	// the budget, so a run ends close to --seconds rather than up to one
	// job (or traced pair) after it.
	var last time.Duration
	for j := 0; j == 0 || time.Since(origin)+last <= budget; j++ {
		began := time.Now()
		in := wl.inputs(opts.seed, j, sz)
		out, err := runJob(wl, in, nil, opts.trace, bufs)
		plain = append(plain, jobRecord{out, err})
		fmt.Fprintf(w, "job %d: cpu %.4f s, wall %.4f s, set-up cpu %.4f s\n", j,
			out.total.cpu.Seconds(), out.total.wall.Seconds(), out.setup.cpu.Seconds())
		if err != nil {
			failed++
			fmt.Fprintf(w, "job %d FAILED: %v\n", j, err)
		}
		if opts.trace {
			done := tr.beginJob(j)
			tout, terr := runJob(wl, in, tr, true, bufs)
			done()
			traced = append(traced, jobRecord{tout, terr})
			switch {
			case terr != nil:
				failed++
				fmt.Fprintf(w, "traced job %d FAILED: %v\n", j, terr)
			case err == nil && tout.digest != out.digest:
				failed++
				fmt.Fprintf(w, "traced job %d FAILED: its Result differs from the untraced job's\n", j)
			}
		}
		last = time.Since(began)
	}
	attempted := len(plain) + len(traced)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	s := jobSeries(plain)
	n := len(s.cpu)
	fmt.Fprintf(w, "workload %s seed %d: %d jobs in %.1f s, %d failed (failed_ratio %.4f)\n",
		wl.name, opts.seed, attempted, time.Since(origin).Seconds(), failed, float64(failed)/float64(attempted))
	tail, pct, beyond := tailPercentile(s.wall)
	if !opts.trace {
		report(w, res, "job_cpu_s", median(s.cpu), "s", fmt.Sprintf("median CPU time of %d jobs", n))
		report(w, res, "setup_s", median(s.setup), "s", fmt.Sprintf("median CPU time of %d set-ups", n))
		report(w, res, "peak_rss_mb", peakRSSMB(), "MB", "peak resident set of this process")
		report(w, nil, "job_s", median(s.wall), "s", fmt.Sprintf("median wall time of %d jobs (per-layer metric)", n))
		report(w, nil, "setup_wall_s", median(s.setupWall), "s", fmt.Sprintf("median wall time of %d set-ups (per-layer metric)", n))
		report(w, nil, "job_s_tail", tail, "s", fmt.Sprintf("p%.0f of %d wall times, %d beyond (per-layer metric)", pct, n, beyond))
		report(w, nil, "output_mb", median(s.outMB), "MB", "recording + journal per job (per-layer metric)")
		return res, nil
	}

	layers := map[string][]float64{}
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		for k, v := range r.out.layer {
			layers[k] = append(layers[k], v)
		}
	}
	twall := median(jobSeries(traced).wall)
	for _, l := range layerUnits {
		var v float64
		detail := fmt.Sprintf("median of %d traced jobs", len(layers[l.name]))
		switch l.name {
		case "trace.overhead_ratio":
			v = ratio(twall, median(s.wall))
			detail = fmt.Sprintf("traced job_s %.4f ÷ untraced job_s %.4f", twall, median(s.wall))
		case "job_s":
			v = median(s.wall)
			detail = fmt.Sprintf("median wall time of %d untraced jobs", n)
		case "setup_wall_s":
			v = median(s.setupWall)
			detail = fmt.Sprintf("median wall time of %d untraced set-ups", n)
		case "job_s_tail":
			v = tail
			detail = fmt.Sprintf("p%.0f of %d untraced wall times, %d beyond", pct, n, beyond)
		case "output_mb":
			v = median(s.outMB)
			detail = fmt.Sprintf("recording + journal, median of %d untraced jobs", n)
		default:
			v = median(layers[l.name])
		}
		report(w, res, l.name, v, l.unit, detail)
	}
	if opts.spanDir != "" {
		path, err := tr.writeFile(opts.spanDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, opts.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d spans, %d aggregates written to %s\n", len(tr.spans), len(tr.aggs), path)
	}
	return res, nil
}

// runJob runs one job, traced when tr is non-nil. It collects the
// previous job's garbage first, so every job starts from the small heap a
// fresh CLI process has instead of paying for its predecessor's.
func runJob(wl *workload, in inputs, tr *tracer, digest bool, bufs *buffers) (*jobOut, error) {
	runtime.GC()
	c := &jobCtx{in: in, tr: tr, digest: digest, bufs: bufs}
	out, err := wl.run(c)
	if out == nil {
		out = c.newOut()
	}
	return out, err
}

// series are per-job values of the jobs that succeeded (of all jobs when
// none did).
type series struct{ cpu, wall, setup, setupWall, outMB []float64 }

func jobSeries(recs []jobRecord) series {
	var s series
	ok := slices.ContainsFunc(recs, func(r jobRecord) bool { return r.err == nil })
	for _, r := range recs {
		if ok && r.err != nil {
			continue
		}
		s.cpu = append(s.cpu, r.out.total.cpu.Seconds())
		s.wall = append(s.wall, r.out.total.wall.Seconds())
		s.setup = append(s.setup, r.out.setup.cpu.Seconds())
		s.setupWall = append(s.setupWall, r.out.setup.wall.Seconds())
		s.outMB = append(s.outMB, float64(r.out.outBytes)/1e6)
	}
	return s
}

// report prints one metric line and, when res is non-nil, adds the metric
// to the result.
func report(w io.Writer, res *result, name string, v float64, unit, detail string) {
	fmt.Fprintf(w, "%-28s %14.6f %-6s %s\n", name, v, unit, detail)
	if res != nil {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

func printJSON(w io.Writer, key string, v any) error {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
