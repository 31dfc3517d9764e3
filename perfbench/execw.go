package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/exec/cluster"
	"autopart/internal/ir"
	"autopart/internal/pipeline"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

const (
	execSteps     = 2
	procNodes     = 2
	wideNodes     = 64
	gmp1SetupRuns = 3
)

// execAppSpec is one executor app at cmd/run's -size default or -size
// small per-node configuration.
type execAppSpec struct {
	name  string
	src   string
	build func(c *autopart.Compiled, nodes int) (*exec.Program, error)
}

func execAppSpecs(small bool) []execAppSpec {
	circuitCfg := circuit.DefaultConfig()
	stencilCfg, spmvCfg, miniCfg, pennantCfg := stencil.DefaultConfig(), spmv.DefaultConfig(), miniaero.DefaultConfig(), pennant.DefaultConfig()
	if small {
		circuitCfg = circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
		stencilCfg = stencil.Config{Width: 128, RowsPerNode: 4}
		spmvCfg = spmv.Config{RowsPerNode: 128, NnzPerRow: 8}
		miniCfg = miniaero.Config{DX: 4, DY: 4, DZ: 4}
		pennantCfg = pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}
	}
	return []execAppSpec{
		{"stencil", stencil.Source(), func(c *autopart.Compiled, n int) (*exec.Program, error) { return stencil.Executable(stencilCfg, c, n) }},
		{"circuit", circuit.Source, func(c *autopart.Compiled, n int) (*exec.Program, error) {
			return circuit.Executable(circuitCfg, c, n, false)
		}},
		{"circuit-hint", circuit.HintSource, func(c *autopart.Compiled, n int) (*exec.Program, error) {
			return circuit.Executable(circuitCfg, c, n, true)
		}},
		{"spmv", spmv.Source, func(c *autopart.Compiled, n int) (*exec.Program, error) { return spmv.Executable(spmvCfg, c, n) }},
		{"miniaero", miniaero.Source(), func(c *autopart.Compiled, n int) (*exec.Program, error) { return miniaero.Executable(miniCfg, c, n) }},
		{"pennant-h2", pennant.HintSource(2), func(c *autopart.Compiled, n int) (*exec.Program, error) {
			return pennant.Executable(pennantCfg, c, n, 2)
		}},
	}
}

// execApp is one instantiated app, ready to run.
type execApp struct {
	name string
	prog *exec.Program
}

// execBench is the exec-proc and exec-wide workload: closed-loop runs,
// one at a time, of the six executor apps in a seeded order per round.
type execBench struct {
	seed  int64
	proc  bool
	nodes int
	specs []execAppSpec
	rng   *rand.Rand
	apps  []execApp
	// setupLayers are the compile, instantiate and progwire metrics of
	// the last traced set-up.
	setupLayers map[string]float64

	refs  map[string]*ir.Machine
	refMS map[string]float64 // RunSequentialReference ms per step
	comm  map[string]comm    // per app: the first run's communication
	// attempted, failed and failures tally runs as they are checked: a
	// run's result is too large to keep until the end.
	attempted, failed int
	failures          []string
	// afterRun, set only by tests, corrupts each result before it is
	// checked, to show that the checks count a bad result as failed.
	afterRun func(*exec.Result)
}

func newExecBench(seed int64, proc bool) *execBench {
	w := &execBench{seed: seed, proc: proc, nodes: wideNodes, refs: map[string]*ir.Machine{}, refMS: map[string]float64{}, comm: map[string]comm{}}
	if proc {
		w.nodes = procNodes
	}
	w.specs = execAppSpecs(!proc)
	return w
}

func (w *execBench) name() string {
	if w.proc {
		return "exec-proc"
	}
	return "exec-wide"
}

// prepare compiles and instantiates every app and encodes its program
// for the wire, recording compile stats into stats and the instantiate
// and progwire figures into layers.
func (w *execBench) prepare(tr *tracer, stats *compileStats, layers map[string]float64) ([]execApp, error) {
	var apps []execApp
	for _, s := range w.specs {
		op, id := tr.id(), tr.id()
		obs := newPassObserver(tr, op, id, 1)
		s0 := tr.now()
		c, err := autopart.Compile(s.src, autopart.Options{Observers: []pipeline.Observer{obs}})
		tr.record(span{ID: id, Op: op, Name: "compile", TID: 1, Start: s0, End: tr.now()})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		stats.add(s.name, "builtin", obs, c, 0)
		var prog *exec.Program
		inst := tr.call("instantiate", op, 0, 1, func() { prog, err = s.build(c, w.nodes) })
		if err != nil {
			return nil, fmt.Errorf("instantiate %s: %w", s.name, err)
		}
		var blob []byte
		enc := tr.call("progwire.encode", op, 0, 1, func() { blob, err = exec.EncodeProgram(prog) })
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", s.name, err)
		}
		layers["app.instantiate_ms"] += ms(inst)
		layers["progwire.encode_ms"] += ms(enc)
		layers["progwire.program_bytes"] += float64(len(blob))
		if tr != nil {
			dec := tr.call("progwire.decode", op, 0, 1, func() { _, err = exec.DecodeProgram(blob) })
			if err != nil {
				return nil, fmt.Errorf("decode %s: %w", s.name, err)
			}
			layers["progwire.decode_ms"] += ms(dec)
		}
		apps = append(apps, execApp{name: s.name, prog: prog})
	}
	return apps, nil
}

func (w *execBench) setup(tr *tracer) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	stats, layers := newCompileStats(), map[string]float64{}
	apps, err := w.prepare(tr, stats, layers)
	if err != nil {
		return err
	}
	w.apps = apps
	if tr != nil {
		stats.layers(layers)
		w.setupLayers = layers
	}
	return nil
}

func (w *execBench) gomaxprocs1(_ time.Duration, tr *tracer) (map[string]float64, error) {
	stats := newCompileStats()
	var inst []float64
	for i := 0; i < gmp1SetupRuns; i++ {
		layers := map[string]float64{}
		if _, err := w.prepare(tr, stats, layers); err != nil {
			return nil, err
		}
		inst = append(inst, layers["app.instantiate_ms"])
	}
	out := map[string]float64{"app.instantiate_ms": median(sortedCopy(inst))}
	stats.layers(out)
	return out, nil
}

// runStats accumulates a traced phase's executor figures.
type runStats struct {
	wallMS, computeMS, waitMS []float64
	overlapNS, computeNS      float64
	allocBytes, steps         float64
	gcCPU, totalCPU           float64
	overheadMS, crossMS       []float64
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func readCPU() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (w *execBench) run(prog *exec.Program) (*exec.Result, error) {
	cfg := exec.Config{Nodes: w.nodes, Steps: execSteps}
	if !w.proc {
		return exec.Run(prog, cfg)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary for worker re-exec: %w", err)
	}
	return cluster.Spawn(prog, cfg, cluster.SpawnOptions{Command: []string{self, "-proc-worker"}})
}

func (w *execBench) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	var rs runStats
	stepMS := map[string][]float64{}
	var totalWallS float64
	var roundTput []float64
	// The phase lasts until d has been spent inside timed runs; checks
	// between runs come on top.
	for rounds := 0; rounds == 0 || totalWallS < d.Seconds(); rounds++ {
		var roundSteps, roundWallS float64
		for _, ai := range w.rng.Perm(len(w.apps)) {
			app := w.apps[ai]
			op, id := tr.id(), tr.id()
			var a0 uint64
			var gc0, cpu0 float64
			if tr != nil {
				a0 = heapAllocs()
				gc0, cpu0 = readCPU()
			}
			// Every run starts from a collected heap, so garbage left by
			// the previous run and its check does not land on this one.
			runtime.GC()
			s0 := tr.now()
			t0 := time.Now()
			res, err := w.run(app.prog)
			wall := time.Since(t0)
			tr.record(span{ID: id, Op: op, Name: "run." + app.name, TID: 0, Start: s0, End: tr.now()})
			w.attempted++
			roundWallS += wall.Seconds()
			if err == nil && w.afterRun != nil {
				w.afterRun(res)
			}
			if err == nil {
				err = w.check(app, res, tr, op, &rs)
			}
			if err != nil {
				w.failed++
				w.failures = append(w.failures, fmt.Sprintf("%s: %v", app.name, err))
				continue
			}
			stepMS[app.name] = append(stepMS[app.name], ms(wall)/execSteps)
			roundSteps += execSteps
			if tr != nil {
				gc1, cpu1 := readCPU()
				rs.gcCPU += gc1 - gc0
				rs.totalCPU += cpu1 - cpu0
				rs.allocBytes += float64(heapAllocs() - a0)
				rs.steps += execSteps
				tr.launchSpans(res, op, id, s0)
				busiest := timings(res, &rs)
				if w.proc {
					rs.overheadMS = append(rs.overheadMS, ms(wall)-busiest)
				}
			}
		}
		totalWallS += roundWallS
		if roundWallS > 0 {
			roundTput = append(roundTput, roundSteps/roundWallS)
		}
	}

	p := newPhaseResult()
	p.breakdown = stepMS
	var perApp []float64
	for _, a := range execApps {
		xs := stepMS[a]
		if len(xs) == 0 {
			continue
		}
		m := median(sortedCopy(xs))
		perApp = append(perApp, m)
		p.layers["app.step_ms."+a] = m
	}
	if len(perApp) > 0 {
		p.value["op_ms_p50"] = geomean(perApp)
		p.value["op_ms_tail"] = sortedCopy(perApp)[len(perApp)-1]
	}
	p.samples["op_ms_p50"], p.samples["op_ms_tail"] = perApp, perApp
	p.value["ops_per_s"] = median(sortedCopy(roundTput))
	p.samples["ops_per_s"] = roundTput
	if tr == nil {
		p.layers = map[string]float64{}
		return p, nil
	}
	for k, v := range w.setupLayers {
		p.layers[k] = v
	}
	for a, v := range w.refMS {
		p.layers["rewrite.ref_ms_per_step."+a] = v
	}
	p.layers["exec.launch_wall_ms"] = median(sortedCopy(rs.wallMS))
	p.layers["exec.compute_ms"] = median(sortedCopy(rs.computeMS))
	p.layers["exec.wait_ms"] = median(sortedCopy(rs.waitMS))
	p.layers["exec.overlap_ratio"] = 0
	if rs.computeNS > 0 {
		p.layers["exec.overlap_ratio"] = rs.overlapNS / rs.computeNS
	}
	if rs.steps > 0 {
		p.layers["exec.alloc_mb_per_step"] = rs.allocBytes / rs.steps / (1 << 20)
	}
	if rs.totalCPU > 0 {
		p.layers["exec.gc_cpu_frac"] = rs.gcCPU / rs.totalCPU
	}
	if w.proc {
		p.layers["cluster.overhead_ms"] = median(sortedCopy(rs.overheadMS))
	}
	p.layers["sim.crosscheck_ms"] = median(sortedCopy(rs.crossMS))
	for app, c := range w.comm {
		p.layers["exec.bytes_per_step."+app] = c.bytesPerStep
		p.layers["exec.msgs_per_step."+app] = float64(c.msgsPerStep)
	}
	return p, nil
}

// timings folds a result's per-node, per-launch timings into rs and
// returns the busiest node's summed launch wall time in ms.
func timings(res *exec.Result, rs *runStats) float64 {
	perNode := map[int]float64{}
	for _, st := range res.Steps {
		for _, lc := range st.Launches {
			for node, nt := range lc.Times {
				rs.wallMS = append(rs.wallMS, float64(nt.WallNS)/1e6)
				rs.computeMS = append(rs.computeMS, float64(nt.ComputeNS)/1e6)
				rs.waitMS = append(rs.waitMS, float64(nt.WallNS-nt.ComputeNS)/1e6)
				rs.overlapNS += float64(nt.OverlapNS)
				rs.computeNS += float64(nt.ComputeNS)
				perNode[node] += float64(nt.WallNS) / 1e6
			}
		}
	}
	busiest := 0.0
	for _, v := range perNode {
		busiest = max(busiest, v)
	}
	return busiest
}

// check verifies one run outside the timed region: every per-node,
// per-launch counter equals internal/sim's prediction, the gathered
// regions are bit-identical to exec.RunSequentialReference, and the
// byte and message counts equal the app's first run.
func (w *execBench) check(app execApp, res *exec.Result, tr *tracer, op int64, rs *runStats) error {
	var err error
	cross := tr.call("check.sim_crosscheck", op, 0, 0, func() { err = crossCheck(app.prog, res, execSteps) })
	rs.crossMS = append(rs.crossMS, ms(cross))
	if err != nil {
		return fmt.Errorf("counter cross-check: %w", err)
	}
	ref, ok := w.refs[app.name]
	if !ok {
		d := tr.call("check.reference", op, 0, 0, func() { ref, err = exec.RunSequentialReference(app.prog, execSteps) })
		if err != nil {
			return fmt.Errorf("sequential reference: %w", err)
		}
		w.refs[app.name] = ref
		w.refMS[app.name] = ms(d) / execSteps
	}
	tr.call("check.regions", op, 0, 0, func() { err = sameRegions(ref, res.Machine) })
	if err != nil {
		return err
	}
	got := comm{bytesPerStep: res.TotalBytes() / execSteps, msgsPerStep: res.TotalMsgs() / execSteps}
	if want, ok := w.comm[app.name]; ok && want != got {
		return fmt.Errorf("communication changed between runs: %s then %s", want, got)
	}
	w.comm[app.name] = got
	return nil
}

// comm is an app's communication per step, which is exact and the same
// on every run.
type comm struct {
	bytesPerStep float64
	msgsPerStep  int
}

func (c comm) String() string {
	return fmt.Sprintf("bytes_per_step=%.0f msgs_per_step=%d", c.bytesPerStep, c.msgsPerStep)
}

// sameRegions reports the first region whose data differs.
func sameRegions(want, got *ir.Machine) error {
	names := make([]string, 0, len(want.Regions))
	for name := range want.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got.Regions[name]
		if !ok {
			return fmt.Errorf("region %s missing from the gathered result", name)
		}
		if same, diff := want.Regions[name].SameData(g); !same {
			return fmt.Errorf("region %s diverges from the sequential reference: %s", name, diff)
		}
	}
	return nil
}

// crossCheck replays the analytic model over the same steps and
// compares every per-node, per-launch counter the executor measured
// (cmd/execbench's rule). Compute units are analytic-only and skipped.
// The model advances a copy of the program's initial owners, so the
// program can run and be checked again.
func crossCheck(prog *exec.Program, res *exec.Result, steps int) error {
	model := sim.Default()
	owners := &sim.State{Owners: maps.Clone(prog.Owners.Owners)}
	launches := prog.Plan.Launches()
	if len(res.Steps) != steps {
		return fmt.Errorf("executor returned %d steps, want %d", len(res.Steps), steps)
	}
	for step := 0; step < steps; step++ {
		its, err := model.RunIteration(launches, prog.Parts, owners)
		if err != nil {
			return fmt.Errorf("step %d: sim: %w", step, err)
		}
		if len(its.Launches) != len(res.Steps[step].Launches) {
			return fmt.Errorf("step %d: sim has %d launches, executor %d", step, len(its.Launches), len(res.Steps[step].Launches))
		}
		for li, ls := range its.Launches {
			measured := res.Steps[step].Launches[li]
			for j := range ls.Nodes {
				want, got := ls.Nodes[j], measured.Nodes[j]
				want.ComputeUnits, got.ComputeUnits = 0, 0
				if want != got {
					return fmt.Errorf("step %d launch %s node %d: sim predicts %+v, executor measured %+v",
						step, ls.Name, j, want, got)
				}
			}
		}
	}
	return nil
}

func (w *execBench) finish(rec *record) (attempted, failed int) {
	for app, c := range w.comm {
		rec.Counters[w.name()+"/"+app] = c.String()
	}
	for _, f := range w.failures {
		rec.fail(f)
	}
	return w.attempted, w.failed
}
