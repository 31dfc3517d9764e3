package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"autopart/internal/exec"
	"autopart/pkg/autopart"
)

// TestMain runs the tests from the repository root, where the benchmark
// finds the goldens, and serves as the exec-proc worker when a test
// re-execs this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-proc-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{2, 7, 1, 8, 2, 8, 1, 8, 2, 8}, 1.75, 8},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

// inputDigest hashes everything a workload generates from its seed.
func inputDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	h := sha256.New()
	switch workload {
	case "compile-cold":
		m := newCompileMix(seed)
		for _, in := range m.inputs {
			fmt.Fprintf(h, "%s\n%s\n", in.Name, in.Src)
		}
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(h, "%d,", m.next())
		}
	case "service-edits":
		w := newServiceEdits(seed)
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.progs {
			for m := uint(0); m < 1<<len(p.edits); m++ {
				fmt.Fprintf(h, "%s/%x\n%s", p.name, m, p.text(m))
			}
		}
		for _, c := range w.clients {
			for i := 0; i < 500; i++ {
				op := c.next()
				fmt.Fprintf(h, "%s@%x,", c.key(op.prog), op.mask)
			}
		}
	case "exec-proc", "exec-wide":
		w := newExecBench(seed, workload == "exec-proc")
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			fmt.Fprint(h, w.rng.Perm(len(w.apps)))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, wl := range []string{"compile-cold", "service-edits", "exec-wide"} {
		a, b, c := inputDigest(t, wl, 5), inputDigest(t, wl, 5), inputDigest(t, wl, 6)
		if a != b {
			t.Errorf("%s: equal seeds generated different inputs", wl)
		}
		if a == c {
			t.Errorf("%s: different seeds generated identical inputs", wl)
		}
	}
}

// TestEditVersionsCompile shows that no service-edits request fails:
// every version of every program compiles.
func TestEditVersionsCompile(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		w := newServiceEdits(seed)
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.progs {
			for m := uint(0); m < 1<<len(p.edits); m++ {
				if _, err := autopart.Compile(p.text(m), autopart.Options{}); err != nil {
					t.Errorf("seed %d: %s version %x: %v", seed, p.name, m, err)
				}
			}
		}
	}
}

func TestCorruptCompileOutputIsCounted(t *testing.T) {
	w := newCompileCold(1)
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.measure(10*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	rec := &record{Counters: map[string]string{}}
	if _, failed := w.finish(rec); failed != 0 {
		t.Fatalf("clean run: %d failed: %v", failed, rec.Failures)
	}
	corrupted := -1
	for i, op := range w.ops {
		if w.mix.inputs[op.in].Class == "builtin" {
			w.ops[i].out.Hash[0] ^= 1
			corrupted = i
			break
		}
	}
	if corrupted < 0 {
		t.Fatal("no builtin compile in the window")
	}
	rec = &record{Counters: map[string]string{}}
	if _, failed := w.finish(rec); failed == 0 {
		t.Fatal("a corrupted compile output was not counted as failed")
	}
}

func TestCorruptExecResultIsCounted(t *testing.T) {
	corruptions := map[string]func(*exec.Result){
		"region value": func(res *exec.Result) {
			for _, r := range res.Machine.Regions {
				for _, f := range r.FieldNames() {
					if vals := r.Scalar(f); len(vals) > 0 {
						vals[0] += 1
						return
					}
				}
			}
		},
		"sim counter": func(res *exec.Result) { res.Steps[0].Launches[0].Nodes[0].BytesIn++ },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			w := newExecBench(1, false)
			w.nodes, w.specs = 3, w.specs[:2]
			if err := w.setup(nil); err != nil {
				t.Fatal(err)
			}
			w.afterRun = corrupt
			if _, err := w.measure(time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
			rec := &record{Counters: map[string]string{}}
			attempted, failed := w.finish(rec)
			if failed != attempted || attempted == 0 {
				t.Fatalf("%d of %d corrupted runs counted as failed", failed, attempted)
			}
		})
	}
}

// TestWorkloadSmoke runs every workload briefly, traced, and checks the
// contract line and the trace files.
func TestWorkloadSmoke(t *testing.T) {
	for _, wl := range []string{"compile-cold", "service-edits", "exec-proc", "exec-wide"} {
		t.Run(wl, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "results.jsonl")
			var stdout bytes.Buffer
			code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.2", "--trace", "1",
				"--out", out, "--trace-dir", dir}, &stdout, io.Discard)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricOut
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			for _, d := range perLayer() {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s missing or mis-united: %+v", d.Name, m)
				}
			}
			if len(line.Metrics) != len(perLayer()) {
				t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(perLayer()))
			}
			recs, err := readRecords(out)
			if err != nil {
				t.Fatal(err)
			}
			rec := recs[0]
			if len(rec.EndToEnd) != len(endToEnd) || len(rec.TraceFiles) != 2 || len(rec.Counters) == 0 {
				t.Errorf("record: %d end-to-end metrics, trace files %v, %d counters", len(rec.EndToEnd), rec.TraceFiles, len(rec.Counters))
			}
			for _, f := range rec.TraceFiles {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
		})
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, program prints %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's per-layer metrics")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 float64, counter string) *record {
		r := &record{Workload: "w", EndToEnd: map[string]fullMetric{}, Counters: map[string]string{"k": counter}}
		r.EndToEnd["op_ms_p50"] = fullMetric{Value: p50}
		return r
	}
	bounds := []metricDef{{Name: "op_ms_p50", Better: "lower", Bound: 0.1}}
	cases := []struct {
		name      string
		old, cur  []*record
		verdict   string
		regressed bool
	}{
		{"same", []*record{mk(10, "a"), mk(10.1, "a")}, []*record{mk(10.05, "a")}, "ok", false},
		{"slower", []*record{mk(10, "a"), mk(10.1, "a")}, []*record{mk(12, "a")}, "worse", true},
		{"noisy", []*record{mk(5, "a"), mk(10, "a"), mk(15, "a"), mk(20, "a")}, []*record{mk(12, "a")}, "unresolved", false},
		{"counter", []*record{mk(10, "a")}, []*record{mk(10, "b")}, "counter-mismatch", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed := compareRecords(bounds, c.old, c.cur, &out)
		if regressed != c.regressed || !strings.Contains(out.String(), "w              "+c.verdict) {
			t.Errorf("%s: regressed=%v, output:\n%s", c.name, regressed, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "launch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "launch", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "launch", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the run.
	if got["run"] != 40 || got["launch"] != 90 {
		t.Errorf("self times = %v", got)
	}
}
