package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// heldOutSeed is never used while tuning a change: a claimed gain must
// also hold on a run with this seed.
const heldOutSeed = 7919

// header stamps a run with what makes runs comparable: the toolchain, the
// CPUs, the code measured and the workload's parameters and seed.
type header struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	Commit      string `json:"commit"`
	SourceHash  string `json:"source_sha256"`
	Workers     int    `json:"workers"`
	Sizes       sizes  `json:"sizes"`
	FirstJob    inputs `json:"job0_inputs"`
}

func newHeader(opts options, sz sizes) header {
	return header{
		Workload:    opts.workload.name,
		Why:         opts.workload.why,
		Seed:        opts.seed,
		HeldOutSeed: heldOutSeed,
		Seconds:     opts.seconds,
		Trace:       opts.trace,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Commit:      commit(),
		SourceHash:  sourceHash("."),
		Workers:     workers,
		Sizes:       sz,
		FirstJob:    opts.workload.inputs(opts.seed, 0, sz),
	}
}

// commit returns the VCS revision the binary was built from, "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash hashes the Go sources and module files under root, skipping
// hidden directories, so runs of different code differ even where no
// commit is known.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest order statistic with at least ten
// samples above it, its percentile and the number of samples beyond it.
// With fewer than 11 samples no such statistic exists; it then returns
// the maximum as p100 with 0 beyond.
func tailPercentile(xs []float64) (v, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 11 {
		return s[len(s)-1], 100, 0
	}
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s)), 10
}
