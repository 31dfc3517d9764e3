package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/diag"
	"autopart/internal/dpl"
	"autopart/internal/gen"
	"autopart/internal/pipeline"
	launchrt "autopart/internal/runtime"
	"autopart/pkg/autopart"
)

// goldenDir holds cmd/apc's committed outputs for the five builtins.
var goldenDir = filepath.Join("cmd", "apc", "testdata")

// builtinSources are the five builtins cmd/apc's goldens cover.
var builtinSources = []struct{ name, src string }{
	{"spmv", spmv.Source},
	{"stencil", stencil.Source()},
	{"circuit", circuit.Source},
	{"miniaero", miniaero.Source()},
	{"pennant", pennant.Source()},
}

// allowedRejections are the verdicts a generated program may validly
// receive: the inference rejections and the solver's "no solution".
var allowedRejections = map[string]bool{"I001": true, "I003": true, "I009": true, "S001": true}

// render is cmd/apc's -constraints -launches output without its timing
// line: the text the goldens hold.
func render(c *autopart.Compiled) string {
	var b strings.Builder
	for i, plan := range c.Plans {
		relaxed := ""
		if plan.Relaxed {
			relaxed = " (relaxed per §5.1)"
		}
		fmt.Fprintf(&b, "loop %d: for %s in %s%s\n", i, c.Loops[i].Var, c.Loops[i].Region, relaxed)
		fmt.Fprintf(&b, "  %s\n", plan.Sys)
	}
	b.WriteString("\nsynthesized DPL program:\n")
	b.WriteString(indent(c.Solution.Program.String()) + "\n")
	if c.Private != nil && len(c.Private.Extra.Stmts) > 0 {
		b.WriteString("private sub-partitions (§5.2, Theorem 5.1):\n")
		b.WriteString(indent(c.Private.Extra.String()) + "\n")
	}
	b.WriteString("parallel launches:\n")
	for i, pl := range c.Parallel {
		fmt.Fprintf(&b, "  %s\n", launchrt.FromParallelLoop(fmt.Sprintf("loop%d", i), pl))
	}
	b.WriteString("\n")
	return b.String()
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// verdict is a compile's outcome: "ok" or the diagnostic code.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return diag.From(err, "X000").Code
}

// outcome is what a compile produced, condensed for checking.
type outcome struct {
	Verdict string
	Loops   int
	Hash    [32]byte // sha256 of render; zero when rejected
}

func outcomeOf(c *autopart.Compiled, err error) outcome {
	o := outcome{Verdict: verdict(err)}
	if err == nil {
		o.Loops = len(c.Parallel)
		o.Hash = sha256.Sum256([]byte(render(c)))
	}
	return o
}

func (o outcome) String() string {
	if o.Verdict != "ok" {
		return o.Verdict
	}
	return fmt.Sprintf("ok loops=%d dpl=%x", o.Loops, o.Hash[:8])
}

// synthLoops is an n-loop program whose loops are long scalar chains
// between one region read and one region write: the parse, check,
// normalize and infer passes do most of its work (compilebench's
// synthetic shape).
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

// compileInput is one program of the compile-cold mix.
type compileInput struct {
	Name  string // builtin:miniaero, synth:12, gen:<seed>
	Class string // builtin, synth or gen
	Src   string
	Loops int           // synth: the loop count the output must have
	Sc    *gen.Scenario // gen: the scenario the solver oracle replays
}

// Mix of one 200-compile deck. MiniAero, the slowest builtin, is 3 in
// 200: together with the generated programs slower than it (about 0.3%
// of compiles), that puts the p99 near MiniAero's median, the steady part
// of its band, rather than in its upper tail, which swings most with
// CPU contention at GOMAXPROCS>1. Generated programs are the majority,
// so the median lands inside their continuous spread.
const (
	deckMiniAero = 3
	deckBuiltin  = 6 // each of the other four builtins
	deckSynth    = 48
	deckGen      = 125
	synthPool    = 12
	// genPool generated programs are drawn in order, each compiled once
	// unless a run outlasts the pool.
	genPool = 2000
	// genUniverse bounds the generator seeds the pool draws from.
	genUniverse = 5000
	// compileWindow is the number of compiles per throughput window: one
	// whole deck, so every window has the same mix.
	compileWindow = deckMiniAero + 4*deckBuiltin + deckSynth + deckGen
)

// slowGenSeeds are the Small-tier generator seeds below genUniverse
// whose compile spends 0.65 to 4.6 s in the solver phase (relax, solve,
// private) on a 2-CPU machine, against at most 0.42 s for every other
// seed. At about 0.3% of programs and seconds each, a run's count of
// them would decide its throughput, so they are kept out of the timed
// mix and measured on their own in traced runs (compile.slow_gen_ms).
var slowGenSeeds = []int64{649, 722, 907, 1021, 1042, 1157, 1330, 1747, 2028, 2855, 2903, 4263, 4420, 4712}

// compileMix generates the compile-cold inputs and the draw order for
// a seed. Equal seeds give identical inputs and draws.
type compileMix struct {
	inputs  []*compileInput
	rng     *rand.Rand
	deck    []int
	nextGen int
}

func newCompileMix(seed int64) *compileMix {
	rng := rand.New(rand.NewSource(seed))
	m := &compileMix{}
	for _, b := range builtinSources {
		m.inputs = append(m.inputs, &compileInput{Name: "builtin:" + b.name, Class: "builtin", Src: b.src})
	}
	// Synthetic sizes are stratified, one per band of three loop counts
	// from 4 to 39, so every seed has the same spread of sizes.
	for i := 0; i < synthPool; i++ {
		n := 4 + 3*i + rng.Intn(3)
		m.inputs = append(m.inputs, &compileInput{Name: fmt.Sprintf("synth:%d", n), Class: "synth", Src: synthLoops(n), Loops: n})
	}
	slow := map[int64]bool{}
	for _, s := range slowGenSeeds {
		slow[s] = true
	}
	for _, gs := range rng.Perm(genUniverse) {
		if len(m.inputs) == len(builtinSources)+synthPool+genPool {
			break
		}
		if slow[int64(gs)] {
			continue
		}
		sc := gen.Generate(int64(gs), gen.Small)
		m.inputs = append(m.inputs, &compileInput{Name: fmt.Sprintf("gen:%d", gs), Class: "gen", Src: sc.Src, Sc: sc})
	}
	m.rng = rand.New(rand.NewSource(rng.Int63()))
	return m
}

// next draws the next input index: decks with fixed class counts,
// shuffled, so the mix is exact over every deck.
func (m *compileMix) next() int {
	if len(m.deck) == 0 {
		nb := len(builtinSources)
		for i, b := range builtinSources {
			k := deckBuiltin
			if b.name == "miniaero" {
				k = deckMiniAero
			}
			for ; k > 0; k-- {
				m.deck = append(m.deck, i)
			}
		}
		for k := 0; k < deckSynth; k++ {
			m.deck = append(m.deck, nb+k%synthPool)
		}
		for k := 0; k < deckGen; k++ {
			m.deck = append(m.deck, nb+synthPool+m.nextGen)
			m.nextGen = (m.nextGen + 1) % genPool
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	i := m.deck[0]
	m.deck = m.deck[1:]
	return i
}

// compileStats accumulates the compiler-layer metrics of traced
// compiles: pass walls per input class from the Observer, and the
// solver's counters from Solution.Stats.
type compileStats struct {
	passUS                  map[string][]float64
	miniaeroUnifyUS         []float64
	ok, unifyUS             float64
	nodes, nodeHits         float64
	builds, extends         float64
	memoH, memoM, closedH   float64
	closedM, roundH, roundM float64
	allocBytes, allocOps    float64
	internEnabled           bool
}

func newCompileStats() *compileStats { return &compileStats{passUS: map[string][]float64{}} }

// add records one traced compile of program name, an input of class.
func (s *compileStats) add(name, class string, obs *passObserver, c *autopart.Compiled, allocBytes uint64) {
	for pass, wall := range obs.walls {
		key := "pass." + pass + "_us." + class
		s.passUS[key] = append(s.passUS[key], us(wall))
	}
	s.allocBytes += float64(allocBytes)
	s.allocOps++
	if c == nil {
		return
	}
	st := c.Solution.Stats
	s.ok++
	s.unifyUS += float64(st.UnifyNS) / 1e3
	if name == "miniaero" {
		s.miniaeroUnifyUS = append(s.miniaeroUnifyUS, float64(st.UnifyNS)/1e3)
	}
	s.nodes += float64(st.Nodes)
	s.nodeHits += float64(st.NodeHits)
	s.builds += float64(st.GraphBuilds)
	s.extends += float64(st.GraphExtends)
	s.memoH += float64(st.MemoHits)
	s.memoM += float64(st.MemoMisses)
	s.closedH += float64(st.ClosedHits)
	s.closedM += float64(st.ClosedMisses)
	s.roundH += float64(st.UnifyRoundHits)
	s.roundM += float64(st.UnifyRoundMisses)
}

// startIntern turns the default intern table's hit counters on for a
// traced phase; layers reads them back and turns them off.
func (s *compileStats) startIntern() {
	dpl.EnableInternStats(true)
	s.internEnabled = true
}

// layers writes the per-layer compiler metrics into out. Pass walls are
// medians per compile; solver.unify_us is the mean per successful
// compile, so MiniAero's share shows; counts are means per successful
// compile.
func (s *compileStats) layers(out map[string]float64) {
	for key, xs := range s.passUS {
		out[key] = median(sortedCopy(xs))
	}
	if s.ok > 0 {
		out["solver.unify_us"] = s.unifyUS / s.ok
		out["solver.search_nodes"] = s.nodes / s.ok
		out["solver.node_hits"] = s.nodeHits / s.ok
		out["solver.graph_builds"] = s.builds / s.ok
		out["solver.graph_extends"] = s.extends / s.ok
		out["solver.memo_hit_rate"] = hitRate(s.memoH, s.memoM)
		out["solver.closed_hit_rate"] = hitRate(s.closedH, s.closedM)
		out["solver.unify_round_hit_rate"] = hitRate(s.roundH, s.roundM)
	}
	if len(s.miniaeroUnifyUS) > 0 {
		out["solver.unify_us.miniaero"] = median(sortedCopy(s.miniaeroUnifyUS))
	}
	if s.allocOps > 0 {
		out["compile.alloc_mb_per_op"] = s.allocBytes / s.allocOps / (1 << 20)
	}
	if s.internEnabled {
		var h, m uint64
		for _, st := range dpl.InternStats() {
			h += st.Hits
			m += st.Misses
		}
		dpl.EnableInternStats(false)
		s.internEnabled = false
		out["dpl.intern_hit_rate"] = hitRate(float64(h), float64(m))
	}
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// compileOp is one timed compile and its condensed output.
type compileOp struct {
	in  int
	out outcome
	// nodes is the solver's search-node count (-1 when rejected) and
	// procs the GOMAXPROCS it ran under.
	nodes, procs int
}

// compileCold is the compile-cold workload: one client running one-shot
// autopart.Compile on a seeded mix of builtins, synthetic N-loop
// programs and generated programs.
type compileCold struct {
	seed    int64
	mix     *compileMix
	goldens map[string][32]byte
	ops     []compileOp
	// slow holds the traced set-up's compiles of slowGenSeeds and
	// slowLayers their median time.
	slow       map[int64]outcome
	slowLayers map[string]float64
}

// slowGenRuns is how many slowGenSeeds a traced run compiles.
const slowGenRuns = 2

func newCompileCold(seed int64) *compileCold { return &compileCold{seed: seed} }

func loadGoldens() (map[string][32]byte, error) {
	out := map[string][32]byte{}
	for _, b := range builtinSources {
		data, err := os.ReadFile(filepath.Join(goldenDir, b.name+".golden"))
		if err != nil {
			return nil, err
		}
		out["builtin:"+b.name] = sha256.Sum256(data)
	}
	return out, nil
}

func (w *compileCold) setup(tr *tracer) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	w.goldens = g
	w.mix = newCompileMix(w.seed)
	// Every set-up starts from an empty intern table, so the traced phase
	// compiles the same programs from the same state as the untraced one
	// and their difference is the tracing overhead.
	dpl.Default().Reset()
	// Warm up: every builtin once, so code and the intern table are
	// faulted in before timing.
	for _, b := range builtinSources {
		if _, err := autopart.Compile(b.src, autopart.Options{}); err != nil {
			return fmt.Errorf("warm-up %s: %w", b.name, err)
		}
	}
	if tr == nil {
		return nil
	}
	// The traced set-up also times a seeded pick of the generated
	// programs kept out of the timed mix.
	w.slow, w.slowLayers = map[int64]outcome{}, map[string]float64{}
	var slowMS []float64
	for _, i := range rand.New(rand.NewSource(w.seed)).Perm(len(slowGenSeeds))[:slowGenRuns] {
		gs := slowGenSeeds[i]
		sc := gen.Generate(gs, gen.Small)
		var c *autopart.Compiled
		var err error
		op := tr.id()
		d := tr.call("compile.slow_gen", op, 0, 1, func() { c, err = autopart.Compile(sc.Src, autopart.Options{}) })
		w.slow[gs] = outcomeOf(c, err)
		slowMS = append(slowMS, ms(d))
	}
	w.slowLayers["compile.slow_gen_ms"] = median(sortedCopy(slowMS))
	return nil
}

func (w *compileCold) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	stats := newCompileStats()
	if tr != nil {
		stats.startIntern()
	}
	var lat []float64
	breakdown := map[string][]float64{}
	w.mix.deck = nil // windows start on a deck boundary
	procs := runtime.GOMAXPROCS(0)
	start := time.Now()
	for len(lat) == 0 || len(lat)%compileWindow != 0 || time.Since(start) < d {
		i := w.mix.next()
		in := w.mix.inputs[i]
		opts := autopart.Options{}
		var obs *passObserver
		var op, id int64
		var a0 uint64
		if tr != nil {
			op, id = tr.id(), tr.id()
			obs = newPassObserver(tr, op, id, 1)
			opts.Observers = []pipeline.Observer{obs}
			a0 = heapAllocs()
		}
		s0 := tr.now()
		t0 := time.Now()
		c, err := autopart.Compile(in.Src, opts)
		el := time.Since(t0)
		if tr != nil {
			alloc := heapAllocs() - a0
			tr.record(span{ID: id, Op: op, Name: "compile", TID: 1, Start: s0, End: tr.now()})
			stats.add(strings.TrimPrefix(in.Name, "builtin:"), in.Class, obs, c, alloc)
		}
		nodes := -1
		if c != nil {
			nodes = c.Solution.Stats.Nodes
		}
		w.ops = append(w.ops, compileOp{in: i, out: outcomeOf(c, err), nodes: nodes, procs: procs})
		lat = append(lat, ms(el))
		class := in.Class
		if in.Name == "builtin:miniaero" {
			class = in.Name
		}
		breakdown[class] = append(breakdown[class], ms(el))
	}
	p := newPhaseResult()
	p.breakdown = breakdown
	var windows [][]float64
	for len(lat) > 0 {
		n := min(compileWindow, len(lat))
		windows, lat = append(windows, lat[:n]), lat[n:]
	}
	p.setLatency(windows, 99, 1)
	if tr != nil {
		stats.layers(p.layers)
		for k, v := range w.slowLayers {
			p.layers[k] = v
		}
	}
	return p, nil
}

func (w *compileCold) gomaxprocs1(d time.Duration, tr *tracer) (map[string]float64, error) {
	p, err := w.measure(d, tr)
	if err != nil {
		return nil, err
	}
	return p.layers, nil
}

// finish checks every compile: builtins against the goldens; synthetic
// programs for their loop count and the same output every time;
// generated programs for an allowed verdict, the same verdict and
// output every time, and a passing solver oracle once per input.
func (w *compileCold) finish(rec *record) (attempted, failed int) {
	first := map[int]outcome{}
	bad := map[int]string{}
	type nodeKey struct{ in, procs int }
	nodes := map[nodeKey][]float64{}
	for _, op := range w.ops {
		if _, ok := first[op.in]; !ok {
			first[op.in] = op.out
		}
		if op.nodes >= 0 && w.mix.inputs[op.in].Class == "builtin" {
			k := nodeKey{op.in, op.procs}
			nodes[k] = append(nodes[k], float64(op.nodes))
		}
	}
	for i, o := range first {
		in := w.mix.inputs[i]
		switch in.Class {
		case "builtin":
			if o.Verdict != "ok" {
				bad[i] = "rejected " + o.Verdict
			}
		case "synth":
			if o.Verdict != "ok" || o.Loops != in.Loops {
				bad[i] = fmt.Sprintf("want ok with %d loops, got %s", in.Loops, o)
			}
		case "gen":
			if o.Verdict != "ok" && !allowedRejections[o.Verdict] {
				bad[i] = "unexpected verdict " + o.Verdict
			} else if msg := oracleDisagrees(in.Sc, o.Verdict); msg != "" {
				bad[i] = msg
			}
		}
		rec.Counters["compile-cold/"+in.Name] = o.String()
	}
	for _, op := range w.ops {
		attempted++
		in := w.mix.inputs[op.in]
		msg := bad[op.in]
		if msg == "" && in.Class == "builtin" && op.out.Hash != w.goldens[in.Name] {
			msg = "output differs from " + filepath.Join(goldenDir, strings.TrimPrefix(in.Name, "builtin:")+".golden")
		}
		if msg == "" && op.out != first[op.in] {
			msg = fmt.Sprintf("output changed between compiles: %s then %s", first[op.in], op.out)
		}
		if msg != "" {
			failed++
			rec.fail(in.Name + ": " + msg)
		}
	}
	for gs, o := range w.slow {
		attempted++
		rec.Counters[fmt.Sprintf("compile-cold/gen-slow:%d", gs)] = o.String()
		if o.Verdict != "ok" {
			failed++
			rec.fail(fmt.Sprintf("gen-slow:%d: rejected %s", gs, o.Verdict))
		}
	}
	for k, xs := range nodes {
		recordSearchNodes(rec, "compile-cold/"+w.mix.inputs[k.in].Name, xs, k.procs)
	}
	return attempted, failed
}

// oracleDisagrees runs the semantic solver oracle on a generated
// program and returns why it disagrees with the compile's verdict, or
// "" when it agrees.
func oracleDisagrees(sc *gen.Scenario, v string) string {
	rep := gen.RunSolverOracle(sc)
	switch {
	case rep.Failed():
		return "solver oracle: " + rep.String()
	case v == "ok" && rep.Verdict != gen.SolverOK:
		return "accepted, but solver oracle says " + rep.String()
	case v == "S001" && rep.Verdict != gen.SolverOK && rep.Verdict != gen.SolverUndecided:
		return "S001, but solver oracle says " + rep.String()
	case v != "ok" && v != "S001" && (rep.Verdict != gen.SolverRejected || rep.Code != v):
		return v + ", but solver oracle says " + rep.String()
	}
	return ""
}

// recordSearchNodes records one input's solver search-node counts at
// one GOMAXPROCS: as a counter when the count cannot vary, otherwise as
// non-deterministic with its range. At GOMAXPROCS>1 speculative parallel
// unification makes the count vary from compile to compile.
func recordSearchNodes(rec *record, key string, xs []float64, procs int) {
	s := sortedCopy(xs)
	distinct := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			distinct++
		}
	}
	key = fmt.Sprintf("%s/solver.search_nodes@gomaxprocs=%d", key, procs)
	if distinct == 1 && procs == 1 {
		rec.Counters[key] = fmt.Sprint(s[0])
		return
	}
	note := "varies between compiles of one input"
	if procs > 1 {
		note = "not deterministic at GOMAXPROCS>1 (parallel unification): never compared exactly"
	}
	if rec.Nondeterministic == nil {
		rec.Nondeterministic = map[string]nondet{}
	}
	rec.Nondeterministic[key] = nondet{Min: s[0], Max: s[len(s)-1], Distinct: distinct, Samples: len(s), Note: note}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
