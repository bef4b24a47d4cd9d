package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/schedule"
)

// testSizes shrink every workload so the whole suite runs in seconds.
var testSizes = sizes{SyncN: 2000, AsyncN: 300, TreeN: 3000, ReplayN: 200, Chars: 2}

// TestTracedMatchesUntraced runs every workload at reduced size untraced
// and traced on the same inputs: both must pass their output checks and
// produce identical Results (and, for record-replay, identical recording
// and journal bytes).
func TestTracedMatchesUntraced(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			for j := 0; j < 2; j++ {
				in := wl.inputs(5, j, testSizes)
				plain, err := runJob(wl, in, nil, true, &buffers{})
				if err != nil {
					t.Fatalf("job %d untraced: %v", j, err)
				}
				tr := newTracer()
				done := tr.beginJob(j)
				traced, err := runJob(wl, in, tr, true, &buffers{})
				done()
				if err != nil {
					t.Fatalf("job %d traced: %v", j, err)
				}
				if plain.digest == "" || plain.digest != traced.digest {
					t.Fatalf("job %d: traced digest %q, untraced %q", j, traced.digest, plain.digest)
				}
				if traced.layer["engine.run_s"] <= 0 || traced.layer["machine.step_calls"] <= 0 {
					t.Errorf("job %d: traced run recorded no engine or machine work: %v", j, traced.layer)
				}
				if len(tr.spans) == 0 || tr.spans[0].Name != "job" || tr.spans[len(tr.spans)-1].End == 0 {
					t.Errorf("job %d: spans not recorded and closed: %+v", j, tr.spans)
				}
			}
		})
	}
}

// TestWrappersKeepOptionalInterfaces pins the wrappers' exactness: every
// optional interface the engine or the recorder looks for is present on
// the wrapper exactly when the wrapped value has it.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	machines := []machine.Machine{
		algorithms.MaxConsensus(3),
		algorithms.LocalTypeMax(3),
		&machine.InputFunc{Func: *algorithms.MaxConsensus(3).(*machine.Func)},
		&machine.ObliviousFunc{Func: *algorithms.MaxConsensus(3).(*machine.Func)},
	}
	for _, m := range machines {
		w := wrapMachine(m, &machineStats{})
		if _, a := m.(machine.MessageGuard); a != has[machine.MessageGuard](w) {
			t.Errorf("%s: MessageGuard %v, wrapper %v", m.Name(), a, !a)
		}
		if _, a := m.(machine.InputAware); a != has[machine.InputAware](w) {
			t.Errorf("%s: InputAware %v, wrapper %v", m.Name(), a, !a)
		}
		if _, a := m.(machine.Rebooter); a != has[machine.Rebooter](w) {
			t.Errorf("%s: Rebooter %v, wrapper %v", m.Name(), a, !a)
		}
		if machine.DegreeOblivious(m) != machine.DegreeOblivious(w) {
			t.Errorf("%s: DegreeOblivious differs through the wrapper", m.Name())
		}
	}
	for _, spec := range []string{"sync", "roundrobin", "random:0.3", "staleness:2", "adversary:3"} {
		s, err := schedule.Parse(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapSchedule(s, &scheduleStats{})
		if _, a := s.(schedule.Dilated); a != has[schedule.Dilated](w) {
			t.Errorf("%s: Dilated %v, wrapper %v", spec, a, !a)
		}
		if _, a := s.(schedule.Resumable); a != has[schedule.Resumable](w) {
			t.Errorf("%s: Resumable %v, wrapper %v", spec, a, !a)
		}
	}
	for _, spec := range []string{"drop:0.1", "byzantine:0.05", hostileFaults, "crash:2+dup:0.1", "partition:3"} {
		p, err := fault.Parse(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapPlan(p, &planStats{})
		if fault.CanCorrupt(p) != fault.CanCorrupt(w) {
			t.Errorf("%s: CanCorrupt %v, wrapper %v", spec, fault.CanCorrupt(p), fault.CanCorrupt(w))
		}
		if _, a := p.(schedule.Resumable); a != has[schedule.Resumable](w) {
			t.Errorf("%s: Resumable %v, wrapper %v", spec, a, !a)
		}
	}
}

func has[I any](v any) bool {
	_, ok := v.(I)
	return ok
}

// TestInputsFollowSeed: the same seed gives the same inputs, and a
// different seed or job changes every seeded input.
func TestInputsFollowSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b := wl.inputs(9, 3, fullSizes), wl.inputs(9, 3, fullSizes)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: same seed gave %s and %s", wl.name, ja, jb)
		}
		for _, other := range []inputs{wl.inputs(10, 3, fullSizes), wl.inputs(9, 4, fullSizes)} {
			if other.Graph == a.Graph {
				t.Errorf("%s: graph %s did not change with the seed or job", wl.name, a.Graph)
			}
		}
	}
}

// TestRunPrintsEveryMetric runs the command at reduced size both ways and
// checks the result line's shape.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		opts := options{workload: &workloads[0], seed: 1, seconds: 1, trace: trace}
		res, err := measure(opts, testSizes, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace=%v: result %+v\n%s", trace, res, out.String())
		}
		want := []string{"job_cpu_s", "setup_s", "peak_rss_mb"}
		if trace {
			want = want[:0]
			for _, l := range layerUnits {
				want = append(want, l.name)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace=%v: metric %s missing", trace, name)
			}
		}
		if !strings.HasPrefix(out.String(), `{"header":`) {
			t.Errorf("trace=%v: output does not start with the run header", trace)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	v, pct, beyond := tailPercentile(xs)
	if v != 29 || beyond != 10 || pct != 75 {
		t.Errorf("tailPercentile = %v, p%v, %d beyond; want 29, p75, 10", v, pct, beyond)
	}
	if v, pct, beyond := tailPercentile(xs[:5]); v != 39 || pct != 100 || beyond != 0 {
		t.Errorf("short series: %v p%v %d beyond", v, pct, beyond)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the program in step: same gated workloads, same metrics, same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames(true) {
		t.Errorf("BENCHMARK.json workloads %q, program's gated workloads %q", got, workloadNames(true))
	}
	wantE2E := []entry{{"job_cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}}
	if !slices.Equal(spec.EndToEnd, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", spec.EndToEnd, wantE2E)
	}
	var layers []entry
	for _, l := range layerUnits {
		layers = append(layers, entry{l.name, l.unit})
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", spec.PerLayer, layers)
	}
}
