// Command perfbench is the repository benchmark. It drives autosec only
// through public entry points — campaign.Run with core.RunResultOf,
// scenario.CompileDir, server.New(...).Handler() on loopback listeners,
// and fleet.Run — checks that their outputs are correct, and prints
// every metric by name and unit. The last line of its output is one
// JSON object: end-to-end metrics by default, per-layer metrics with
// --trace 1.
//
// Run it from the root of a checkout through the wrapper, which builds
// it first:
//
//	sh perfbench/run.sh --workload registry-campaign --seed 1 --seconds 20 --trace 0
//	sh perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json lists the workloads and metrics, and why each
// workload was chosen.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: selects each campaign's seed schedule")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root holding scenarios/ and the golden files")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, w := range ws {
		o := &options{
			root:   *root,
			seed:   *seed,
			window: time.Duration(*seconds * float64(time.Second)),
			jobs:   min(2, runtime.NumCPU()),
			setups: 15,
		}
		if err := runWorkload(w, o, *trace == 1, *outDir, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

// MarshalJSON keeps the metrics in their defined order.
func (r result) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, m := range r.Metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.Name)
		unit, _ := json.Marshal(m.Unit)
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		val, _ := json.Marshal(v)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, val, unit)
	}
	b.WriteString("}}")
	return []byte(b.String()), nil
}

// meta is the run metadata recorded next to every result.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Jobs       int            `json:"jobs"`
	ErrorRate  float64        `json:"error_rate"`
	Samples    map[string]int `json:"samples"`
	Errors     []string       `json:"errors,omitempty"`
}

// runWorkload measures one workload and reports it. A traced run spends
// half its window untraced and half traced, so it can report the
// tracing overhead as the difference of the two.
func runWorkload(w *workload, o *options, traced bool, outDir string, stdout io.Writer) error {
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return err
	}
	defer removeAll(scratch)
	o.scratch = scratch

	var phases []*phase
	var metrics []metric
	if traced {
		half := *o
		half.window = o.window / 2
		a, err := measure(w, &half, false, true)
		if err != nil {
			return err
		}
		b, err := measure(w, &half, true, false)
		if err != nil {
			return err
		}
		phases = []*phase{a, b}
		metrics = perLayer(b, a, o.jobs)
		if err := writeFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, o.seed)), func(wr io.Writer) error {
			return json.NewEncoder(wr).Encode(struct {
				Spans []span `json:"spans"`
			}{b.spans})
		}); err != nil {
			return err
		}
	} else {
		a, err := measure(w, o, false, true)
		if err != nil {
			return err
		}
		phases = []*phase{a}
		metrics = a.endToEnd()
	}

	res := result{Metrics: metrics}
	var errs []string
	for _, p := range phases {
		res.Attempted += p.cells
		res.Failed += p.failed
		for _, e := range p.errs {
			errs = append(errs, e.Error())
		}
	}
	res.Correct = len(errs) == 0 && res.Failed == 0
	md := newMeta(w, o, traced)
	md.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
	md.Errors = errs
	for _, m := range metrics {
		md.Samples[m.Name] = m.Samples
	}

	line, err := res.MarshalJSON()
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, b2i(traced))), func(wr io.Writer) error {
		enc := json.NewEncoder(wr)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Meta    meta            `json:"meta"`
			Metrics []metric        `json:"metrics"`
			Result  json.RawMessage `json:"result"`
		}{md, metrics, line})
	}); err != nil {
		return err
	}

	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "perfbench: %s seed %d, %gs window, trace %t, jobs %d, commit %s, source %.16s, %s, %s, nproc %d, GOMAXPROCS %d\n",
		w.name, o.seed, o.window.Seconds(), traced, o.jobs, md.Commit, md.Source, md.GoVersion, md.CPU, md.NumCPU, md.GOMAXPROCS)
	tw := tabwriter.NewWriter(bw, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\t")
	for _, m := range metrics {
		note := ""
		if m.Samples == 0 {
			note = "not exercised by this workload"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", m.Name, m.Value, m.Unit, m.Samples, note)
	}
	fmt.Fprintf(tw, "error_rate\t%.6g\tratio\t%d\t\n", md.ErrorRate, res.Attempted)
	tw.Flush()
	if res.Correct {
		fmt.Fprintln(bw, "correctness: all gates passed")
	}
	for _, e := range errs {
		fmt.Fprintln(bw, "correctness FAILED:", e)
	}
	mline, _ := json.Marshal(md)
	fmt.Fprintf(bw, "meta %s\n", mline)
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func newMeta(w *workload, o *options, traced bool) meta {
	md := meta{
		Workload:   w.name,
		Seed:       o.seed,
		Seconds:    o.window.Seconds(),
		Trace:      traced,
		Commit:     "unknown",
		Source:     sourceDigest(o.root),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       o.jobs,
		Samples:    make(map[string]int),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				md.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					md.Commit += "+dirty"
				}
			}
		}
	}
	return md
}

// sourceDigest identifies the program's source where the build carries
// no VCS stamp, as in an exported checkout: sha256 over go.mod and every
// .go file under root, outside dot-directories.
func sourceDigest(root string) string {
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
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
