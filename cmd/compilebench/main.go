// Command compilebench measures compile-time performance of the builtin
// benchmark programs: it compiles each one N times, records the median
// (p50) wall time of every pipeline pass and of the Table-1 phase
// grouping, and snapshots the solver's cache and search counters from
// the final run. It then measures compile-service throughput — N
// concurrent clients compiling the benchmark set through one shared
// Service — cold (empty memo cache, freshly reset intern table) and
// warm (cache pre-seeded by one uncounted pass), reporting compiles/sec
// and the warm verdict hit rate. Results are written as JSON
// (BENCH_compile.json by default) so CI can archive them and successive
// commits can be compared.
//
// Usage:
//
//	compilebench [-runs N] [-o BENCH_compile.json]
//
// Run it under GOMAXPROCS=1 for a sequential measurement; the report
// records the GOMAXPROCS and CPU count it ran with.
//
// The benchmark is observational, not gating: no thresholds are
// enforced here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/dpl"
	"autopart/internal/lang"
	"autopart/internal/pipeline"
	"autopart/pkg/autopart"
)

// passObserver records one wall-time sample per pass per run.
type passObserver struct {
	samples map[string][]time.Duration
}

func (p *passObserver) OnPassStart(string, int) {}
func (p *passObserver) OnPassEnd(ev pipeline.PassEvent) {
	p.samples[ev.Pass] = append(p.samples[ev.Pass], ev.Wall)
}

// p50 returns the median of a sample set (lower middle for even sizes,
// so a single outlier run cannot shift the reported value).
func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

// solverStats is the JSON shape of the solver's cache/search counters.
type solverStats struct {
	MemoHits     int `json:"memo_hits"`
	MemoMisses   int `json:"memo_misses"`
	ClosedHits   int `json:"closed_hits"`
	ClosedMisses int `json:"closed_misses"`
	NodeHits     int `json:"node_hits"`
	Nodes        int `json:"nodes"`
	// GraphBuilds/GraphExtends count full Algorithm 3 graph rebuilds vs
	// incremental extensions of the cached accumulated graph; a healthy
	// run extends far more than it builds.
	GraphBuilds  int `json:"graph_builds"`
	GraphExtends int `json:"graph_extends"`
}

// internShardJSON is one intern-table shard's size and hit profile over
// a single stats-enabled compile.
type internShardJSON struct {
	Shard   string  `json:"shard"`
	Entries int     `json:"entries"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// appResult is one benchmark program's measurements.
type appResult struct {
	Name      string           `json:"name"`
	Loops     int              `json:"loops"`
	PassP50US map[string]int64 `json:"pass_p50_us"`
	// PhaseP50US groups passes into Table 1's rows (inference =
	// normalize+infer, solver = relax+solve+private, etc.), each the p50
	// of the per-run phase sums.
	PhaseP50US map[string]int64 `json:"phase_p50_us"`
	// UnifyP50US is the p50 wall time spent inside UnifyAndSolve
	// (Algorithm 3 matching + solvability checks), a subset of the solve
	// pass.
	UnifyP50US int64       `json:"unify_p50_us"`
	Solver     solverStats `json:"solver"`
	// Intern profiles the expression intern table during one extra
	// stats-enabled compile after the timed runs (so counter upkeep
	// cannot perturb the p50s). Entries are process-global; hits and
	// misses are per-compile.
	Intern []internShardJSON `json:"intern"`
}

// throughputRow is one compile-service throughput measurement: clients
// concurrent goroutines each compiling the full benchmark set once
// through a shared Service.
type throughputRow struct {
	Clients int `json:"clients"`
	// Mode is "cold" (empty memo cache, freshly reset intern table) or
	// "warm" (one uncounted pre-seeding pass over the benchmark set).
	Mode     string `json:"mode"`
	Compiles int    `json:"compiles"`
	WallUS   int64  `json:"wall_us"`
	// CompilesPerSec is the headline service throughput.
	CompilesPerSec float64 `json:"compiles_per_sec"`
	// MemoHitRate is the shared cache's verdict hit rate over the timed
	// batch (solvable + closed-conjunct lookups; refuted-subtree
	// blocklist lookups are excluded by design).
	MemoHitRate float64 `json:"memo_hit_rate"`
}

// editRecompileRow measures edit-heavy traffic: after each single-loop
// edit, the same warm service recompiles the program both ways — full
// pipeline (Compile) and incrementally (CompileIncremental, diffing
// against the previous version under one key). Both share the warm
// solver memo cache, so the delta isolates the front half of the
// pipeline that incremental compiles skip for clean loops.
type editRecompileRow struct {
	Name  string `json:"name"`
	Loops int    `json:"loops"`
	Edits int    `json:"edits"`
	// WarmFullP50US is the p50 wall time of a warm-service full-pipeline
	// recompile of the edited source.
	WarmFullP50US int64 `json:"warm_full_p50_us"`
	// IncrementalP50US is the p50 wall time of the incremental recompile
	// of the same edit.
	IncrementalP50US int64 `json:"incremental_p50_us"`
	// Speedup is WarmFullP50US / IncrementalP50US.
	Speedup float64 `json:"speedup"`
	// CleanLoops/DirtyLoops total the loops reused vs re-run across the
	// measured incremental recompiles.
	CleanLoops uint64 `json:"clean_loops"`
	DirtyLoops uint64 `json:"dirty_loops"`
}

// report is the top-level JSON document.
type report struct {
	Runs          int                `json:"runs"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	NumCPU        int                `json:"num_cpu"`
	GoOS          string             `json:"goos"`
	GoArch        string             `json:"goarch"`
	Apps          []appResult        `json:"apps"`
	Throughput    []throughputRow    `json:"throughput"`
	EditRecompile []editRecompileRow `json:"edit_recompile"`
}

// measureThroughput runs one timed batch: clients goroutines, each
// compiling every source once (rotated start offsets so programs
// interleave), against a fresh Service. The intern table is reset
// first so every row starts from the same table state; warm rows then
// pre-seed the memo cache with one uncounted pass.
func measureThroughput(srcs []string, clients int, warm bool) throughputRow {
	dpl.Default().Reset()
	sv := autopart.NewService(autopart.ServiceOptions{MaxConcurrent: clients})
	if warm {
		for _, src := range srcs {
			if _, err := sv.Compile(src); err != nil {
				fmt.Fprintf(os.Stderr, "compilebench: warm seed: %v\n", err)
				os.Exit(1)
			}
		}
	}
	before := sv.Stats().Memo
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range srcs {
				if _, err := sv.Compile(srcs[(i+c)%len(srcs)]); err != nil {
					fmt.Fprintf(os.Stderr, "compilebench: throughput: %v\n", err)
					os.Exit(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after := sv.Stats().Memo

	mode := "cold"
	if warm {
		mode = "warm"
	}
	compiles := clients * len(srcs)
	dh, dm := after.Hits-before.Hits, after.Misses-before.Misses
	rate := 0.0
	if dh+dm > 0 {
		rate = float64(dh) / float64(dh+dm)
	}
	return throughputRow{
		Clients:        clients,
		Mode:           mode,
		Compiles:       compiles,
		WallUS:         wall.Microseconds(),
		CompilesPerSec: float64(compiles) / wall.Seconds(),
		MemoHitRate:    rate,
	}
}

// synthLoops generates an n-loop program whose loops are long scalar
// temporary chains bracketed by one region read and one region write:
// front-half (parse/check/normalize/infer) work dominates, while each
// loop contributes only a handful of constraints, modeling a large
// edit-heavy source where full recompiles are front-half-bound.
func synthLoops(n int) string {
	const stmts = 60
	var b strings.Builder
	b.WriteString("region Grid { a: scalar, b: scalar }\n")
	for l := 0; l < n; l++ {
		b.WriteString("for i in Grid {\n")
		fmt.Fprintf(&b, "  t0 = Grid[i].a + %d\n", l)
		for k := 1; k < stmts; k++ {
			fmt.Fprintf(&b, "  t%d = t%d * t%d + %d\n", k, k-1, k-1, k)
		}
		fmt.Fprintf(&b, "  Grid[i].b = t%d\n", stmts-1)
		b.WriteString("}\n")
	}
	return b.String()
}

// editLoop edits the (i mod loops)-th top-level loop of src by
// duplicating its first plain statement line — a realistic one-loop
// edit that changes the loop's token fingerprint.
func editLoop(src string, i int) (string, error) {
	seg, err := lang.SplitSource(src)
	if err != nil {
		return "", err
	}
	if len(seg.Loops) == 0 {
		return "", fmt.Errorf("no loops to edit")
	}
	s := seg.LoopSeg(i % len(seg.Loops))
	loop := src[s.Start:s.End]
	for _, line := range strings.SplitAfter(loop, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || !strings.HasSuffix(line, "\n") || strings.ContainsAny(t, "{}") || strings.HasPrefix(t, "//") {
			continue
		}
		loop = strings.Replace(loop, line, line+line, 1)
		return src[:s.Start] + loop + src[s.End:], nil
	}
	return "", fmt.Errorf("loop %d has no editable statement", i%len(seg.Loops))
}

// measureEditRecompile replays runs single-loop edits against two warm
// services — one serving full-pipeline recompiles, one serving
// incremental recompiles under a single key — timing both compiles of
// every edited version. Separate services mean separate solver memo
// caches: neither path warms the other's cache mid-measurement, so each
// side's p50 is what a dedicated service of that kind would deliver for
// the same edit-heavy traffic.
func measureEditRecompile(name, src string, runs int) editRecompileRow {
	dpl.Default().Reset()
	svFull := autopart.NewService(autopart.ServiceOptions{})
	svIncr := autopart.NewService(autopart.ServiceOptions{})
	const key = "bench"
	c, err := svIncr.CompileIncremental(key, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compilebench: edit-recompile %s: %v\n", name, err)
		os.Exit(1)
	}
	loops := len(c.Parallel)
	if _, err := svFull.Compile(src); err != nil {
		fmt.Fprintf(os.Stderr, "compilebench: edit-recompile %s: %v\n", name, err)
		os.Exit(1)
	}

	cur := src
	var incrS, fullS []time.Duration
	before := svIncr.Stats()
	for i := 0; i < runs; i++ {
		edited, err := editLoop(cur, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compilebench: edit-recompile %s: %v\n", name, err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := svFull.Compile(edited); err != nil {
			fmt.Fprintf(os.Stderr, "compilebench: edit-recompile %s: %v\n", name, err)
			os.Exit(1)
		}
		fullS = append(fullS, time.Since(start))
		start = time.Now()
		if _, err := svIncr.CompileIncremental(key, edited); err != nil {
			fmt.Fprintf(os.Stderr, "compilebench: edit-recompile %s: %v\n", name, err)
			os.Exit(1)
		}
		incrS = append(incrS, time.Since(start))
		cur = edited
	}
	after := svIncr.Stats()

	full, incr := p50(fullS), p50(incrS)
	speedup := 0.0
	if incr > 0 {
		speedup = float64(full) / float64(incr)
	}
	return editRecompileRow{
		Name:             name,
		Loops:            loops,
		Edits:            runs,
		WarmFullP50US:    full.Microseconds(),
		IncrementalP50US: incr.Microseconds(),
		Speedup:          speedup,
		CleanLoops:       after.IncrementalCleanLoops - before.IncrementalCleanLoops,
		DirtyLoops:       after.IncrementalDirtyLoops - before.IncrementalDirtyLoops,
	}
}

func main() {
	runs := flag.Int("runs", 10, "compile runs per program (one extra warm-up run is not counted)")
	out := flag.String("o", "BENCH_compile.json", "output JSON path (- for stdout)")
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "compilebench: -runs must be >= 1")
		os.Exit(2)
	}

	apps := []struct {
		name string
		src  string
	}{
		{"SpMV", spmv.Source},
		{"Stencil", stencil.Source()},
		{"Circuit", circuit.Source},
		{"MiniAero", miniaero.Source()},
		{"PENNANT", pennant.Source()},
	}

	phases := map[string][]string{
		"parse":     {"parse", "check"},
		"inference": {"normalize", "infer"},
		"solver":    {"relax", "solve", "private"},
		"rewrite":   {"rewrite"},
	}

	rep := report{
		Runs:       *runs,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
	}
	for _, app := range apps {
		obs := &passObserver{samples: map[string][]time.Duration{}}
		var last *autopart.Compiled
		var unifySamples []time.Duration
		// One uncounted warm-up run fills caches (interning, page cache)
		// so the measured runs reflect steady-state compiles.
		for i := 0; i <= *runs; i++ {
			o := autopart.Options{}
			if i > 0 {
				o.Observers = []pipeline.Observer{obs}
			}
			c, err := autopart.Compile(app.src, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "compilebench: %s: %v\n", app.name, err)
				os.Exit(1)
			}
			if i > 0 {
				unifySamples = append(unifySamples, time.Duration(c.Solution.Stats.UnifyNS))
			}
			last = c
		}

		// One extra compile with intern-table stats enabled, after the
		// timed runs so the counter upkeep cannot perturb the p50s.
		dpl.EnableInternStats(true)
		if _, err := autopart.Compile(app.src, autopart.Options{}); err != nil {
			fmt.Fprintf(os.Stderr, "compilebench: %s: %v\n", app.name, err)
			os.Exit(1)
		}
		internStats := dpl.InternStats()
		dpl.EnableInternStats(false)

		r := appResult{
			Name:       app.name,
			Loops:      len(last.Parallel),
			PassP50US:  map[string]int64{},
			PhaseP50US: map[string]int64{},
			UnifyP50US: p50(unifySamples).Microseconds(),
			Solver: solverStats{
				MemoHits:     last.Solution.Stats.MemoHits,
				MemoMisses:   last.Solution.Stats.MemoMisses,
				ClosedHits:   last.Solution.Stats.ClosedHits,
				ClosedMisses: last.Solution.Stats.ClosedMisses,
				NodeHits:     last.Solution.Stats.NodeHits,
				Nodes:        last.Solution.Stats.Nodes,
				GraphBuilds:  last.Solution.Stats.GraphBuilds,
				GraphExtends: last.Solution.Stats.GraphExtends,
			},
		}
		for _, st := range internStats {
			rate := 0.0
			if st.Hits+st.Misses > 0 {
				rate = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
			r.Intern = append(r.Intern, internShardJSON{
				Shard:   st.Shard,
				Entries: st.Entries,
				Hits:    st.Hits,
				Misses:  st.Misses,
				HitRate: rate,
			})
		}
		for pass, ds := range obs.samples {
			r.PassP50US[pass] = p50(ds).Microseconds()
		}
		for phase, passes := range phases {
			sums := make([]time.Duration, *runs)
			for _, pass := range passes {
				for i, d := range obs.samples[pass] {
					sums[i] += d
				}
			}
			r.PhaseP50US[phase] = p50(sums).Microseconds()
		}
		rep.Apps = append(rep.Apps, r)
	}

	// Service throughput: cold vs warm at increasing client counts. The
	// sources are compiled through a shared Service exactly as cmd/apcd
	// serves them.
	srcs := make([]string, len(apps))
	for i, app := range apps {
		srcs[i] = app.src
	}
	for _, clients := range []int{1, 4, 16} {
		for _, warm := range []bool{false, true} {
			rep.Throughput = append(rep.Throughput, measureThroughput(srcs, clients, warm))
		}
	}

	// Edit-recompile latency: the five builtins plus a 50-loop synthetic
	// whose compile time is front-half-bound, the shape incremental
	// recompilation targets. Edit rounds are floored at 40 so the p50s
	// are stable even at the default -runs.
	editRounds := *runs
	if editRounds < 40 {
		editRounds = 40
	}
	for _, app := range apps {
		rep.EditRecompile = append(rep.EditRecompile, measureEditRecompile(app.name, app.src, editRounds))
	}
	rep.EditRecompile = append(rep.EditRecompile, measureEditRecompile("Synth50", synthLoops(50), editRounds))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compilebench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "compilebench:", err)
		os.Exit(1)
	}
	fmt.Printf("compilebench: wrote %s (%d apps, %d runs each)\n", *out, len(rep.Apps), *runs)
	for _, a := range rep.Apps {
		fmt.Printf("  %-9s solver p50 %6.1fms  unify p50 %6.1fms  graphs %d+%dext  (memo %d/%d, closed %d/%d, nodes %d)\n",
			a.Name, float64(a.PhaseP50US["solver"])/1000, float64(a.UnifyP50US)/1000,
			a.Solver.GraphBuilds, a.Solver.GraphExtends,
			a.Solver.MemoHits, a.Solver.MemoMisses,
			a.Solver.ClosedHits, a.Solver.ClosedMisses, a.Solver.Nodes)
	}
	for _, row := range rep.Throughput {
		fmt.Printf("  service %2d clients %-4s %7.1f compiles/sec  (memo hit rate %.3f)\n",
			row.Clients, row.Mode, row.CompilesPerSec, row.MemoHitRate)
	}
	for _, row := range rep.EditRecompile {
		fmt.Printf("  edit-recompile %-9s full p50 %8.1fus  incremental p50 %8.1fus  speedup %5.2fx  (%d clean / %d dirty loops)\n",
			row.Name, float64(row.WarmFullP50US), float64(row.IncrementalP50US),
			row.Speedup, row.CleanLoops, row.DirtyLoops)
	}
}
