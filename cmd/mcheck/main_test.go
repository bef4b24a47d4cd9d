package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-formula", "q1 & <*,*> q3", "-graph", "star:3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplicitVariantAndBisim(t *testing.T) {
	args := []string{
		"-formula", "<2,1> q2", "-graph", "fig1", "-ports", "random:3",
		"-variant", "pp", "-bisim", "-graded",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"mp", "pm", "mm"} {
		if err := run([]string{"-formula", "<*,*> q1", "-graph", "path:3", "-variant", v}); err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                // missing formula
		{"-formula", ")"}, // parse error
		{"-formula", "q1", "-graph", "zzz"},
		{"-formula", "q1", "-ports", "zzz"},
		{"-formula", "q1", "-variant", "zz"},
		{"-formula", "<1,1> q1 & <*,1> q1"}, // unclassifiable without -variant
		// Up-front validation added in PR 10.
		{"-formula", "q1", "-node", "2"},            // -node without -char
		{"-formula", "q1", "-depth", "3"},           // -depth without -char
		{"-formula", "q1", "-workers", "0"},         // workers below 1
		{"-formula", "q1", "-graded"},               // -graded without -bisim/-char
		{"-char", "-formula", "q1"},                 // conflict
		{"-char", "-bisim"},                         // conflict
		{"-char", "-depth", "-1"},                   // negative depth
		{"-char", "-node", "-1"},                    // negative node
		{"-char", "-graph", "path:3", "-node", "9"}, // node out of range
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCharSmall(t *testing.T) {
	for _, graded := range []bool{false, true} {
		args := []string{"-char", "-graph", "torus:4x4", "-node", "3", "-depth", "2"}
		if graded {
			args = append(args, "-graded")
		}
		if err := run(args); err != nil {
			t.Fatalf("graded=%v: %v", graded, err)
		}
	}
}

func TestRunWorkersAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	args := []string{
		"-formula", "<*,*>=2 q4", "-graph", "expander:200,4,5", "-variant", "mm",
		"-bisim", "-workers", "2", "-metrics", path,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"weak_logic_evals_total", "weak_logic_refine_rounds_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}
}

// TestRunCharExpander1e5 is the ISSUE acceptance run: a characteristic-
// formula check completing on an n=10⁵ expander through the CLI path.
func TestRunCharExpander1e5(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10⁵ model; skipped in -short")
	}
	args := []string{"-char", "-graph", "expander:100000,4,13", "-node", "0", "-depth", "3", "-graded", "-workers", "4"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// runCaptured runs the CLI with stdout redirected into the returned string.
func runCaptured(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// TestRunWideNumbersRejected: grades and port indices are int32 in the
// interned formula records. A wider number used to be truncated, so a
// formula collapsed onto a different one and printed a wrong truth set
// (the first two printed [], the third all 16 nodes); now the parser
// refuses it and names the limit.
func TestRunWideNumbersRejected(t *testing.T) {
	for _, formula := range []string{
		"<1,1> true & !(<4294967297,1> true)",
		"<*,*> true & !(<*,*>=4294967297 true)",
		"<*,*>=4294967297 q4",
	} {
		out, err := runCaptured(t, []string{"-formula", formula, "-graph", "torus:4x4"})
		if err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("%q: err = %v, want a parse error naming the limit 2147483647", formula, err)
		}
		if strings.Contains(out, "‖φ‖") {
			t.Errorf("%q: printed a truth set:\n%s", formula, out)
		}
	}
}

// TestRunInt32BoundaryNumbers: the same formulas at the largest accepted
// number keep it exactly and print the right sets on torus:4x4.
func TestRunInt32BoundaryNumbers(t *testing.T) {
	for _, c := range []struct{ formula, want string }{
		{"<1,1> true & !(<2147483647,1> true)", "‖φ‖ = [0 1] (2 of 16 nodes)"},
		{"<*,*> true & !(<*,*>=2147483647 true)", "‖φ‖ = [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] (16 of 16 nodes)"},
		{"<*,*>=2147483647 q4", "‖φ‖ = [] (0 of 16 nodes)"},
	} {
		out, err := runCaptured(t, []string{"-formula", c.formula, "-graph", "torus:4x4"})
		if err != nil {
			t.Fatalf("%q: %v", c.formula, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%q: output\n%s\nwant a line %q", c.formula, out, c.want)
		}
	}
}
