// Command perfbench is the repository benchmark. It drives one seeded
// workload through the public entry points of the compiler and the
// executor, checks every output against a reference, and prints one
// JSON line of metrics as the last line of standard output:
//
//	perfbench --workload compile-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: compile-cold, service-edits, exec-proc, exec-wide (see
// README.md for what each stresses and why). --trace 0 measures the
// end-to-end metrics untraced; --trace 1 adds a traced phase and a
// GOMAXPROCS=1 traced pass and prints the per-layer metrics instead.
// Every run appends its full record (build stamp, per-metric sample
// summaries, deterministic counters) to --out, and a traced run writes
// its spans under --trace-dir as JSON lines and as Chrome trace-event
// JSON.
//
//	perfbench -compare OLD.jsonl NEW.jsonl
//
// compares two results files, one row per workload: deterministic
// counters must match exactly, end-to-end medians may worsen by at
// most the bound in BENCHMARK.json, and a metric whose run-to-run
// spread exceeds its bound is reported as unresolved.
//
// The benchmark runs from the repository root: it reads the compiler's
// goldens from cmd/apc/testdata.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"autopart/internal/exec/cluster"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how many times a run sets up its workload; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile-cold, service-edits, exec-proc, exec-wide")
	seed := fs.Int64("seed", 1, "input seed: equal seeds generate identical inputs")
	seconds := fs.Float64("seconds", 10, "length of each timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 adds a traced phase and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results.jsonl"), "append the run's full record to this file (empty disables)")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for a traced run's span files")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: OLD NEW")
	benchJSON := fs.String("benchmark-json", "BENCHMARK.json", "bounds for -compare")
	procWorker := fs.Bool("proc-worker", false, "internal: serve as an exec-proc worker process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procWorker {
		if err := cluster.WorkerMain("127.0.0.1:0", os.Stdout, cluster.WorkerOptions{}); err != nil {
			fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two results files: OLD NEW")
			return 2
		}
		regressed, err := compareFiles(*benchJSON, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	opts := runOptions{
		workload: *name,
		seed:     *seed,
		d:        time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		traceDir: *traceDir,
	}
	rec, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printSummary(stderr, rec)
	line, err := json.Marshal(rec.contract())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type runOptions struct {
	workload string
	seed     int64
	d        time.Duration
	trace    bool
	traceDir string
}

// workload is one traffic mix. Operations that fail a check are counted
// as they are verified; finish verifies whatever remains.
type workload interface {
	// setup generates the seeded inputs and warms up. It runs several
	// times and the last run's state is kept; tr is nil except for the
	// one extra traced set-up of a traced run.
	setup(tr *tracer) error
	// measure runs the closed loop for d; tr is nil in untraced phases.
	measure(d time.Duration, tr *tracer) (*phaseResult, error)
	// gomaxprocs1 repeats the work under gomaxprocs1Metrics, traced, and
	// returns those metrics. The caller sets GOMAXPROCS=1 around it.
	gomaxprocs1(d time.Duration, tr *tracer) (map[string]float64, error)
	// finish verifies every operation, records the deterministic
	// counters, and returns the operations attempted and failed.
	finish(rec *record) (attempted, failed int)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "compile-cold":
		return newCompileCold(seed), nil
	case "service-edits":
		return newServiceEdits(seed), nil
	case "exec-proc":
		return newExecBench(seed, true), nil
	case "exec-wide":
		return newExecBench(seed, false), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have compile-cold, service-edits, exec-proc, exec-wide)", name)
}

// phaseResult is one timed phase's end-to-end figures and, when traced,
// its per-layer metrics.
type phaseResult struct {
	// value and samples are keyed by end-to-end metric name; samples are
	// what value summarizes (latencies, or per-app medians).
	value   map[string]float64
	samples map[string][]float64
	layers  map[string]float64
	// breakdown holds operation latencies (ms) per class, program or app.
	breakdown map[string][]float64
}

func newPhaseResult() *phaseResult {
	return &phaseResult{value: map[string]float64{}, samples: map[string][]float64{}, layers: map[string]float64{}, breakdown: map[string][]float64{}}
}

// setLatency fills the three operation metrics: the median and a tail
// percentile of all per-operation latencies, and the operations per
// second of time spent inside the timed calls, per client, taken per
// window and then the median over windows, so a burst of interference
// from outside the benchmark moves a minority of windows and not the
// result.
func (p *phaseResult) setLatency(windows [][]float64, tailPct float64, clients int) {
	var all, tput []float64
	for _, lat := range windows {
		if len(lat) == 0 {
			continue
		}
		all = append(all, lat...)
		total := 0.0
		for _, x := range lat {
			total += x
		}
		tput = append(tput, float64(len(lat))/(total/1e3/float64(clients)))
	}
	s := sortedCopy(all)
	p.value["op_ms_p50"], p.samples["op_ms_p50"] = median(s), all
	p.value["op_ms_tail"], p.samples["op_ms_tail"] = percentile(s, tailPct), all
	p.value["ops_per_s"], p.samples["ops_per_s"] = median(sortedCopy(tput)), tput
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fullMetric is a metric as the results file records it: value, unit,
// the workload's own name for it, and a summary of its samples.
type fullMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Alias string  `json:"alias,omitempty"`
	summary
}

// nondet is a counter that is known to vary between runs: it is shown
// with its range, never compared exactly.
type nondet struct {
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Distinct int     `json:"distinct"`
	Samples  int     `json:"samples"`
	Note     string  `json:"note"`
}

// record is one run's full result, one line of the results file.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Started    string  `json:"started"`

	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Failures   []string `json:"failures,omitempty"`

	EndToEnd map[string]fullMetric `json:"end_to_end"`
	// TracedEndToEnd and PerLayer are filled by traced runs only.
	TracedEndToEnd map[string]fullMetric `json:"traced_end_to_end,omitempty"`
	PerLayer       map[string]fullMetric `json:"per_layer,omitempty"`
	NotExercised   []string              `json:"not_exercised,omitempty"`
	// Breakdown summarizes the untraced phase's operation latencies (ms)
	// per input class, program or app, to show where the percentiles fall.
	Breakdown map[string]summary `json:"breakdown,omitempty"`
	// SelfMS is each span name's summed self time over the traced set-up,
	// phase and GOMAXPROCS=1 pass.
	SelfMS     map[string]float64 `json:"self_ms,omitempty"`
	TraceFiles []string           `json:"trace_files,omitempty"`

	// Counters are deterministic per input or app and must match
	// exactly between any two runs that share the key.
	Counters         map[string]string `json:"counters"`
	Nondeterministic map[string]nondet `json:"nondeterministic,omitempty"`
}

func (r *record) fail(msg string) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

// contract is the last stdout line: end-to-end metrics from an untraced
// run, per-layer metrics from a traced one.
func (r *record) contract() any {
	metrics := map[string]metricOut{}
	src, defs := r.EndToEnd, endToEnd
	if r.Trace {
		src, defs = r.PerLayer, perLayer()
	}
	for _, d := range defs {
		metrics[d.Name] = metricOut{Value: src[d.Name].Value, Unit: d.Unit}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics}
}

func runWorkload(o runOptions) (*record, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(goldenDir); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	rec := &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.d.Seconds(), Trace: o.trace,
		Revision: revision(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Started:  time.Now().UTC().Format(time.RFC3339),
		Counters: map[string]string{},
	}

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Set-up garbage is returned to the OS first, so peak_rss_mb is the
	// timed phase's own peak.
	debug.FreeOSMemory()
	rss := startRSS()
	untraced, err := w.measure(o.d, nil)
	peak := rss.peak()
	if err != nil {
		return nil, err
	}
	untraced.value["setup_s"] = median(sortedCopy(setups))
	untraced.samples["setup_s"] = setups
	untraced.value["peak_rss_mb"] = peak
	untraced.samples["peak_rss_mb"] = []float64{peak}
	rec.EndToEnd = endToEndMetrics(o.workload, untraced)
	rec.Breakdown = map[string]summary{}
	for k, xs := range untraced.breakdown {
		rec.Breakdown[k] = summarize(xs)
	}

	if o.trace {
		tr := newTracer()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		debug.FreeOSMemory()
		rss := startRSS()
		traced, err := w.measure(o.d, tr)
		tracedPeak := rss.peak()
		if err != nil {
			return nil, err
		}
		traced.value["setup_s"] = untraced.value["setup_s"]
		traced.value["peak_rss_mb"] = tracedPeak
		rec.TracedEndToEnd = endToEndMetrics(o.workload, traced)

		prev := runtime.GOMAXPROCS(1)
		g1, err := w.gomaxprocs1(o.d/2, tr)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		for _, m := range gomaxprocs1Metrics {
			traced.layers[m+".gomaxprocs1"] = g1[m]
		}
		traced.layers["trace.overhead.op_ms_p50"] = traced.value["op_ms_p50"] - untraced.value["op_ms_p50"]
		traced.layers["trace.overhead.op_ms_tail"] = traced.value["op_ms_tail"] - untraced.value["op_ms_tail"]
		traced.layers["trace.overhead.ops_per_s"] = traced.value["ops_per_s"] - untraced.value["ops_per_s"]

		rec.PerLayer = map[string]fullMetric{}
		for _, d := range perLayer() {
			v, ok := traced.layers[d.Name]
			if !ok {
				rec.NotExercised = append(rec.NotExercised, d.Name)
			}
			rec.PerLayer[d.Name] = fullMetric{Value: v, Unit: d.Unit, summary: summarize([]float64{v})}
		}
		rec.SelfMS = map[string]float64{}
		for name, d := range selfTimes(tr.spans) {
			rec.SelfMS[name] = ms(d)
		}
		base := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if rec.TraceFiles, err = tr.writeTraces(o.traceDir, base); err != nil {
			return nil, err
		}
	}

	rec.Attempted, rec.Failed = w.finish(rec)
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	return rec, nil
}

func endToEndMetrics(workload string, p *phaseResult) map[string]fullMetric {
	out := map[string]fullMetric{}
	for _, d := range endToEnd {
		samples := p.samples[d.Name]
		if len(samples) == 0 {
			samples = []float64{p.value[d.Name]}
		}
		out[d.Name] = fullMetric{Value: p.value[d.Name], Unit: d.Unit, Alias: aliases[workload][d.Name], summary: summarize(samples)}
	}
	return out
}

// rssEvery is how often the resident set is sampled during a phase.
const rssEvery = 25 * time.Millisecond

// rssSampler tracks the largest resident set seen while a phase runs.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set it saw,
// in MB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB is the process's current resident set (VmRSS), in MB.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// revision is the git revision the launcher script found, or "unknown"
// when the benchmark runs outside a git checkout.
func revision() string {
	if r := os.Getenv("PERFBENCH_REVISION"); r != "" {
		return r
	}
	return "unknown"
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads a results file.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r := &record{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return out, nil
}

// printSummary writes a human-readable digest to stderr.
func printSummary(w io.Writer, r *record) {
	fmt.Fprintf(w, "perfbench %s seed=%d gomaxprocs=%d num_cpu=%d %s rev=%s: attempted %d, failed %d\n",
		r.Workload, r.Seed, r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.Revision, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, d := range endToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-12s %-18s %12.4f %-4s (n=%d q1=%.4f q3=%.4f min=%.4f)\n",
			d.Name, m.Alias, m.Value, d.Unit, m.N, m.Q1, m.Q3, m.Min)
	}
	if r.Trace {
		names := make([]string, 0, len(r.SelfMS))
		for n := range r.SelfMS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfMS[names[i]] > r.SelfMS[names[j]] })
		fmt.Fprintln(w, "  self time by span (traced phase):")
		for _, n := range names {
			fmt.Fprintf(w, "    %-20s %10.1f ms\n", n, r.SelfMS[n])
		}
	}
	for _, k := range sortedKeys(r.Breakdown) {
		b := r.Breakdown[k]
		fmt.Fprintf(w, "  %-22s n=%-5d median %10.3f ms  q1 %10.3f  q3 %10.3f  min %10.3f\n", k, b.N, b.Median, b.Q1, b.Q3, b.Min)
	}
	for k, v := range r.Nondeterministic {
		fmt.Fprintf(w, "  nondeterministic %s: %g..%g over %d samples (%s)\n", k, v.Min, v.Max, v.Samples, v.Note)
	}
}
