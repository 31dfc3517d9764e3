// Command execbench runs weak-scaling sweeps of the distributed SPMD
// executor (internal/exec): every builtin program at a doubling ladder
// of node counts, measuring shipped bytes, message counts, the
// compute-communication overlap ratio of the dependency-driven
// scheduler, and the p50 per-launch wall clock. Results are written as
// JSON (BENCH_exec.json by default) so CI can archive them and
// successive commits can be compared.
//
// The apps size themselves per node (weak scaling), so the sweep holds
// per-node work constant while the node count grows; execbench uses
// reduced per-node configurations to keep the interpreted shards
// affordable at 256 nodes.
//
// Every run cross-checks the executor's measured per-node, per-launch
// communication counters against the analytic model (internal/sim) —
// any inexact counter is a hard failure, because prediction error is
// the quantity the repo exists to test. Runs at small node counts also
// verify bit-identity against the sequential executor.
//
// Usage:
//
//	execbench [-o BENCH_exec.json] [-max-nodes 256] [-steps 2]
//	          [-transport inproc] [-check-nodes 8] [-proc-nodes 2,4]
//
// -transport proc runs the whole sweep multi-process: each node is a
// spawned worker process (execbench re-execs itself, like cmd/run) and
// the coordinator distributes the program over the bootstrap protocol.
// A full 256-node ladder spawns 256 processes per run, so pass a small
// -max-nodes with it. Independently, -proc-nodes (default 2,4) appends
// multi-process rows at those node counts to every in-process sweep,
// so the default BENCH_exec.json always carries a few proc rows whose
// byte/message counters can be diffed against the inproc rows (they
// must be identical; wall times will not be, which is the point).
//
// The benchmark is observational, not gating: no performance
// thresholds are enforced here (the correctness cross-checks are).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/exec/cluster"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// benchApp is one builtin at its bench-scale (reduced) configuration.
type benchApp struct {
	name  string
	build func(nodes int) (*exec.Program, error)
}

// benchApps compiles each source once and returns per-node-sized
// builders. The configurations are deliberately small: the shard
// interpreter is the bottleneck, and the sweep's subject is protocol
// traffic and scheduling, which depend on the partition geometry, not
// the element count.
func benchApps() ([]benchApp, error) {
	type src struct {
		name string
		text string
	}
	srcs := []src{
		{"stencil", stencil.Source()},
		{"circuit", circuit.Source},
		{"circuit-hint", circuit.HintSource},
		{"spmv", spmv.Source},
		{"miniaero", miniaero.Source()},
		{"pennant-h2", pennant.HintSource(2)},
	}
	compiledBy := map[string]*autopart.Compiled{}
	for _, s := range srcs {
		c, err := autopart.Compile(s.text, autopart.Options{})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		compiledBy[s.name] = c
	}
	return []benchApp{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 4}, compiledBy["stencil"], n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			cfg := circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
			return circuit.Executable(cfg, compiledBy["circuit"], n, false)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			cfg := circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
			return circuit.Executable(cfg, compiledBy["circuit-hint"], n, true)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(spmv.Config{RowsPerNode: 128, NnzPerRow: 8}, compiledBy["spmv"], n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(miniaero.Config{DX: 4, DY: 4, DZ: 4}, compiledBy["miniaero"], n)
		}},
		{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}, compiledBy["pennant-h2"], n, 2)
		}},
	}, nil
}

type launchBench struct {
	Name         string  `json:"name"`
	Bytes        float64 `json:"bytes"`
	Msgs         int     `json:"msgs"`
	OverlapRatio float64 `json:"overlap_ratio"`
	// WallP50NS is the median per-node wall time of the launch across
	// all (step, node) samples.
	WallP50NS int64 `json:"wall_p50_ns"`
}

type runBench struct {
	App          string        `json:"app"`
	Transport    string        `json:"transport"`
	Nodes        int           `json:"nodes"`
	Steps        int           `json:"steps"`
	Bytes        float64       `json:"bytes"`
	Msgs         int           `json:"msgs"`
	OverlapRatio float64       `json:"overlap_ratio"`
	WallNS       int64         `json:"wall_ns"`
	SimExact     bool          `json:"sim_counters_exact"`
	Checked      bool          `json:"checked_vs_sequential"`
	Launches     []launchBench `json:"launches"`
}

type report struct {
	// Revision is the git commit the binary was built from, with a
	// "+dirty" suffix when the tree had uncommitted changes, or
	// "unknown" when the build carries no VCS stamp (go run does not).
	Revision   string     `json:"revision"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	GoVersion  string     `json:"go_version"`
	Transport  string     `json:"transport"`
	Runs       []runBench `json:"runs"`
}

// revision reads the VCS stamp go build embeds in the binary.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "unknown" {
		return rev
	}
	return rev + dirty
}

func p50(ds []int64) int64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

func ratio(overlap, compute int64) float64 {
	if compute <= 0 {
		return 0
	}
	return float64(overlap) / float64(compute)
}

// crossCheck replays the analytic model over the same steps and
// compares every per-node, per-launch counter the executor measured.
// Exactness is the contract: both sides derive traffic from the same
// partition geometry, so any drift is a protocol bug.
func crossCheck(prog *exec.Program, res *exec.Result, steps int) error {
	model := sim.Default()
	launches := prog.Plan.Launches()
	for step := 0; step < steps; step++ {
		its, err := model.RunIteration(launches, prog.Parts, prog.Owners)
		if err != nil {
			return fmt.Errorf("step %d: sim: %w", step, err)
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

func main() {
	out := flag.String("o", "BENCH_exec.json", "output JSON path")
	maxNodes := flag.Int("max-nodes", 256, "largest node count in the doubling ladder")
	steps := flag.Int("steps", 2, "main-loop iterations per run")
	transport := flag.String("transport", "inproc", "message transport: inproc, tcp, flaky, or proc (one worker process per node)")
	checkNodes := flag.Int("check-nodes", 8, "verify bit-identity against the sequential executor up to this node count")
	procNodesFlag := flag.String("proc-nodes", "2,4", "append multi-process rows at these node counts (comma list; empty disables; ignored with -transport proc)")
	procWorker := flag.Bool("proc-worker", false, "internal: run as a spawned worker process")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: control listen address")
	flag.Parse()

	if *procWorker {
		err := cluster.WorkerMain(*listen, os.Stdout, cluster.WorkerOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "execbench worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var tf exec.TransportFactory
	var err error
	if *transport != "proc" {
		tf, err = exec.TransportByName(*transport)
		if err != nil {
			fatal(err)
		}
	}
	apps, err := benchApps()
	if err != nil {
		fatal(err)
	}
	var ladder []int
	for n := 1; n <= *maxNodes; n *= 2 {
		ladder = append(ladder, n)
	}
	var procNodes []int
	if *transport != "proc" {
		procNodes, err = parseNodeList(*procNodesFlag)
		if err != nil {
			fatal(err)
		}
	}

	rep := report{
		Revision:   revision(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Transport:  *transport,
	}
	for _, app := range apps {
		for _, nodes := range ladder {
			run, err := benchOne(app, *transport, tf, nodes, *steps, *checkNodes)
			if err != nil {
				fatal(err)
			}
			rep.Runs = append(rep.Runs, run)
		}
		// The multi-process rows for this app: same programs, every node a
		// spawned worker process, same exactness contract.
		for _, nodes := range procNodes {
			run, err := benchOne(app, "proc", nil, nodes, *steps, *checkNodes)
			if err != nil {
				fatal(err)
			}
			rep.Runs = append(rep.Runs, run)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "execbench: wrote %s (%d runs)\n", *out, len(rep.Runs))
}

// benchOne builds and runs one (app, transport, nodes) cell, cross
// checks it, and condenses the measurements into a runBench row.
// transportName "proc" ignores tf and spawns one worker process per
// node via the cluster coordinator.
func benchOne(app benchApp, transportName string, tf exec.TransportFactory, nodes, steps, checkNodes int) (runBench, error) {
	prog, err := app.build(nodes)
	if err != nil {
		return runBench{}, fmt.Errorf("%s at %d nodes: build: %w", app.name, nodes, err)
	}
	start := time.Now()
	var res *exec.Result
	if transportName == "proc" {
		res, err = procRun(prog, nodes, steps)
	} else {
		res, err = exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps, Transport: tf})
	}
	if err != nil {
		return runBench{}, fmt.Errorf("%s at %d nodes (%s): %w", app.name, nodes, transportName, err)
	}
	wall := time.Since(start)

	// prog.Owners is untouched by Run, so it can seed the model's
	// valid-instance replay for the cross-check.
	if err := crossCheck(prog, res, steps); err != nil {
		return runBench{}, fmt.Errorf("%s at %d nodes (%s): counter cross-check: %w", app.name, nodes, transportName, err)
	}
	checked := false
	if nodes <= checkNodes {
		want, err := exec.RunSequentialReference(prog, steps)
		if err != nil {
			return runBench{}, fmt.Errorf("%s at %d nodes: sequential reference: %w", app.name, nodes, err)
		}
		for name, wr := range want.Regions {
			if same, diff := wr.SameData(res.Machine.Regions[name]); !same {
				return runBench{}, fmt.Errorf("%s at %d nodes (%s): region %s diverges from sequential: %s",
					app.name, nodes, transportName, name, diff)
			}
		}
		checked = true
	}

	run := runBench{
		App: app.name, Transport: transportName, Nodes: nodes, Steps: steps,
		Bytes: res.TotalBytes(), Msgs: res.TotalMsgs(),
		WallNS: wall.Nanoseconds(), SimExact: true, Checked: checked,
	}
	nLaunches := len(prog.Plan.Tasks)
	var totOv, totCp int64
	for li := 0; li < nLaunches; li++ {
		lb := launchBench{Name: res.Steps[0].Launches[li].Name}
		var walls []int64
		var ov, cp int64
		for _, sc := range res.Steps {
			lc := sc.Launches[li]
			lb.Bytes += lc.TotalBytes
			lb.Msgs += lc.TotalMsgs
			for _, nt := range lc.Times {
				walls = append(walls, nt.WallNS)
				ov += nt.OverlapNS
				cp += nt.ComputeNS
			}
		}
		lb.OverlapRatio = ratio(ov, cp)
		lb.WallP50NS = p50(walls)
		totOv += ov
		totCp += cp
		run.Launches = append(run.Launches, lb)
	}
	run.OverlapRatio = ratio(totOv, totCp)
	fmt.Fprintf(os.Stderr, "execbench: %-12s %-6s nodes=%-3d bytes=%10.0f msgs=%6d overlap=%.3f wall=%v\n",
		app.name, transportName, nodes, run.Bytes, run.Msgs, run.OverlapRatio, wall.Round(time.Millisecond))
	return run, nil
}

// procRun executes prog with each node in its own worker process, the
// benchmark twin of cmd/run's proc transport: execbench re-execs
// itself with -proc-worker, so one build serves both roles.
func procRun(prog *exec.Program, nodes, steps int) (*exec.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary for worker re-exec: %w", err)
	}
	return cluster.Spawn(prog, exec.Config{Nodes: nodes, Steps: steps},
		cluster.SpawnOptions{Command: []string{self, "-proc-worker"}})
}

func parseNodeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -proc-nodes entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "execbench: %v\n", err)
	os.Exit(1)
}
