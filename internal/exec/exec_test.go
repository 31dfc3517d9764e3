package exec_test

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/geometry"
	"autopart/internal/region"
	"autopart/internal/runtime"
	"autopart/internal/sim"
	"autopart/pkg/autopart"
)

// appCase builds an executable program for one builtin at a node count.
type appCase struct {
	name  string
	build func(nodes int) (*exec.Program, error)
}

var (
	compileMu    sync.Mutex
	compileCache = map[string]*autopart.Compiled{}
)

// compiled compiles a source once per test binary (miniaero takes a
// visible fraction of a second; the differential matrix would recompile
// it per node count otherwise).
func compiled(t testing.TB, key, src string) *autopart.Compiled {
	t.Helper()
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := compileCache[key]; ok {
		return c
	}
	c, err := autopart.Compile(src, autopart.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", key, err)
	}
	compileCache[key] = c
	return c
}

// appCases is every builtin the executor must reproduce bit-exactly,
// including the hinted circuit variant (its solution differs from the
// unhinted one only in which partitions are externs, but it is the
// §5.2 configuration the paper discusses).
func appCases(t *testing.T) []appCase {
	t.Helper()
	return []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(stencil.DefaultConfig(), compiled(t, "stencil", stencil.Source()), n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit", circuit.Source), n, false)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(spmv.DefaultConfig(), compiled(t, "spmv", spmv.Source), n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(miniaero.DefaultConfig(), compiled(t, "miniaero", miniaero.Source()), n)
		}},
		{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.DefaultConfig(), compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}},
	}
}

// TestDistributedMatchesSequential is the executor's headline guarantee:
// for every builtin, running the compiled plan on 1..N goroutine nodes
// with message-passing ghost exchange produces data bit-identical to the
// sequential parallel-semantics executor. Two steps so ownership
// evolution (stencil's vin/vout ping-pong, circuit's WriteDiscard
// updates) forces real ghost re-exchange in the second step.
func TestDistributedMatchesSequential(t *testing.T) {
	const steps = 2
	for _, app := range appCases(t) {
		for _, nodes := range []int{1, 2, 3, 8} {
			app, nodes := app, nodes
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				want, err := exec.RunSequentialReference(prog, steps)
				if err != nil {
					t.Fatalf("sequential reference: %v", err)
				}
				res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps})
				if err != nil {
					t.Fatalf("distributed run: %v", err)
				}
				for name, wr := range want.Regions {
					same, diff := wr.SameData(res.Machine.Regions[name])
					if !same {
						t.Errorf("region %s diverges from sequential: %s", name, diff)
					}
				}
				if nodes > 1 && res.TotalBytes() == 0 {
					t.Errorf("expected nonzero communication on %d nodes", nodes)
				}
				if nodes == 1 && res.TotalBytes() != 0 {
					t.Errorf("single node should not communicate, shipped %.0f bytes", res.TotalBytes())
				}
			})
		}
	}
}

// TestGuardedRelaxationActive pins down that the miniaero differential
// case really exercises §5.1: its plan carries guarded reduction
// requirements (several per field, through different face partitions),
// so the bit-identity above covers the guarded ship path.
func TestGuardedRelaxationActive(t *testing.T) {
	prog, err := miniaero.Executable(miniaero.DefaultConfig(), compiled(t, "miniaero", miniaero.Source()), 4)
	if err != nil {
		t.Fatal(err)
	}
	guarded := 0
	for _, task := range prog.Plan.Tasks {
		for _, req := range task.Launch.Reqs {
			if req.Priv == runtime.Reduce && req.Guarded {
				guarded++
			}
		}
	}
	if guarded == 0 {
		t.Fatal("miniaero plan has no guarded reductions; the §5.1 differential case is vacuous")
	}
}

// TestPrivateSubPartitionShrinksBuffers pins down that the hinted cases
// really exercise §5.2: unguarded reductions carry a private
// sub-partition, and the measured reduction-buffer allocation is
// strictly smaller than the full instance subregions would be. The two
// cases shrink differently: circuit-hint's node instances are partly
// shared, so buffers shrink but survive; pennant's hints prove the
// reduction instances entirely private, so the buffers vanish outright
// (contributions reduce directly into the local instances).
func TestPrivateSubPartitionShrinksBuffers(t *testing.T) {
	cases := []struct {
		appCase
		wantZero bool
	}{
		{appCase{"circuit-hint", func(n int) (*exec.Program, error) {
			return circuit.Executable(circuit.DefaultConfig(), compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}}, false},
		{appCase{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.DefaultConfig(), compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}}, true},
	}
	const nodes = 4
	for _, app := range cases {
		t.Run(app.name, func(t *testing.T) {
			prog, err := app.build(nodes)
			if err != nil {
				t.Fatal(err)
			}
			private := 0
			var full float64 // buffer elems if §5.2 were off
			for _, task := range prog.Plan.Tasks {
				for _, req := range task.Launch.Reqs {
					if req.Priv != runtime.Reduce || req.Guarded {
						continue
					}
					if req.PrivateSym != "" {
						private++
					}
					p := prog.Parts[req.Sym]
					for j := 0; j < nodes; j++ {
						if !p.Sub(j).Empty() {
							full += float64(p.Sub(j).Len()) * float64(len(req.Fields))
						}
					}
				}
			}
			if private == 0 {
				t.Fatal("no reduction requirement carries a private sub-partition; the §5.2 case is vacuous")
			}
			res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: 1})
			if err != nil {
				t.Fatal(err)
			}
			var measured float64
			for _, lc := range res.Steps[0].Launches {
				for _, ns := range lc.Nodes {
					measured += ns.BufferElems
				}
			}
			if app.wantZero {
				if measured != 0 {
					t.Errorf("expected fully-private instances to need no buffers, measured %.0f elems", measured)
				}
			} else if measured <= 0 {
				t.Error("no reduction buffers were allocated")
			}
			if measured >= full {
				t.Errorf("private sub-partitions did not shrink buffers: measured %.0f elems, full instances %.0f", measured, full)
			}
		})
	}
}

// TestCommMatchesSim cross-checks the executor's measured communication
// against the analytic model: for every small builtin at 7 and 64
// nodes, every per-node, per-launch counter sim predicts must match
// what the executor actually shipped, exactly — bytes, messages,
// fragments, and reduction-buffer elements. The matrix reaches ghosts
// everywhere and the merges of circuit's and PENNANT's buffered
// reductions; guarded ships need other owners (TestRotatedOwners). sim keeps
// its own per-pair formulas, so it checks the executor's exchange
// tables independently. ComputeUnits is excluded by design: the model
// prices compute analytically (work-per-element times elements) while
// the executor reports zero, since wall-clock compute has no place in a
// determinism test. That is the only intentional divergence.
func TestCommMatchesSim(t *testing.T) {
	const steps = 2
	for _, app := range smallAppCases(t) {
		t.Run(app.name, func(t *testing.T) {
			for _, nodes := range []int{7, 64} {
				t.Run("nodes="+itoa(nodes), func(t *testing.T) {
					prog, err := app.build(nodes)
					if err != nil {
						t.Fatal(err)
					}
					res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps})
					if err != nil {
						t.Fatal(err)
					}
					checkCommMatchesSim(t, prog, res, steps)
				})
			}
		})
	}
}

// checkCommMatchesSim requires every per-node, per-launch counter of a
// finished run to equal sim's prediction. Run does not mutate
// prog.Owners, so the same state seeds the model; RunIteration then
// evolves it (in place) step by step exactly as the executor's replicas
// did.
func checkCommMatchesSim(t *testing.T, prog *exec.Program, res *exec.Result, steps int) {
	t.Helper()
	model := sim.Default()
	launches := prog.Plan.Launches()
	for step := 0; step < steps; step++ {
		its, err := model.RunIteration(launches, prog.Parts, prog.Owners)
		if err != nil {
			t.Fatalf("step %d: sim: %v", step, err)
		}
		for li, ls := range its.Launches {
			measured := res.Steps[step].Launches[li]
			for j := range ls.Nodes {
				want, got := ls.Nodes[j], measured.Nodes[j]
				want.ComputeUnits, got.ComputeUnits = 0, 0
				if want != got {
					t.Errorf("step %d launch %s node %d: sim predicts %+v, executor measured %+v",
						step, ls.Name, j, want, got)
				}
			}
		}
	}
	if res.TotalBytes() == 0 {
		t.Error("cross-check is vacuous: no bytes moved")
	}
}

// TestRotatedOwners starts every app from a different valid data
// distribution: each field's initial owner partition with its colors
// rotated by one, so node k starts out owning what node k+1 would.
// Results must stay bit-identical to the sequential executor. With the
// app's own owners, MiniAero's §5.1 guarded reduction targets are
// always owner-aligned, so no builtin ever ships a guarded write-back;
// rotated, its first guarded launch ships remote-owned targets back to
// their owners, and every counter of the run must match sim.
//
// sim is compared on MiniAero only: it moves a field's owner after each
// write requirement instead of after the launch, so when a launch
// reads a field after writing it through an earlier requirement
// (stencil's RW chain on vout, PENNANT's WD then RO of Zones.zr) it
// prices the read against the writer's owner. With the apps' own
// owners the two coincide; rotated, sim predicts fewer bytes than a
// bit-identical run moves. MiniAero's launches read every field before
// they write it.
func TestRotatedOwners(t *testing.T) {
	const steps = 2
	for _, app := range smallAppCases(t) {
		for _, nodes := range []int{3, 7} {
			app, nodes := app, nodes
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatal(err)
				}
				owners := &sim.State{Owners: map[sim.FieldKey]*region.Partition{}}
				for fk, p := range prog.Owners.Owners {
					subs := make([]geometry.IndexSet, nodes)
					for k := range subs {
						subs[k] = p.Sub((k + 1) % nodes)
					}
					owners.Owners[fk] = region.NewPartition(p.Name()+"_rot", p.Parent(), subs)
				}
				prog.Owners = owners
				checkBitIdentical(t, prog, nodes, steps, nil)
				if app.name != "miniaero" {
					return
				}
				requireGuardedShip(t, prog)
				res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps})
				if err != nil {
					t.Fatal(err)
				}
				checkCommMatchesSim(t, prog, res, steps)
			})
		}
	}
}

// requireGuardedShip fails unless some guarded reduction of the plan's
// first launch that has one reduces into elements its node does not
// own under the initial owners (no earlier launch writes a guarded
// field in MiniAero, so those are the owners at that launch).
func requireGuardedShip(t *testing.T, prog *exec.Program) {
	t.Helper()
	for _, task := range prog.Plan.Tasks {
		guarded := false
		for _, req := range task.Launch.Reqs {
			if req.Priv != runtime.Reduce || !req.Guarded {
				continue
			}
			guarded = true
			for _, f := range req.Fields {
				owner := prog.Owners.Owners[sim.FieldKey{Region: req.Region, Field: f}]
				p := prog.Parts[req.Sym]
				for j := 0; j < p.NumSubs(); j++ {
					if !p.Sub(j).SubsetOf(owner.Sub(j)) {
						return
					}
				}
			}
		}
		if guarded {
			break
		}
	}
	t.Fatal("no guarded reduction targets a remote-owned element; the guarded ship path is not exercised")
}

// firstRemoteRead returns the first read (task, requirement, field) of
// the plan, in schedule order, whose partition gives node 0 a non-empty
// remote part under the initial owners, plus that part.
func firstRemoteRead(prog *exec.Program) (ti, ri int, field string, remote geometry.IndexSet) {
	for ti, task := range prog.Plan.Tasks {
		for ri, req := range task.Launch.Reqs {
			if req.Priv != runtime.ReadOnly && req.Priv != runtime.ReadWrite {
				continue
			}
			for _, f := range req.Fields {
				owner := prog.Owners.Owners[sim.FieldKey{Region: req.Region, Field: f}]
				remote := prog.Parts[req.Sym].Sub(0).Subtract(owner.Sub(0))
				if !remote.Empty() {
					return ti, ri, f, remote
				}
			}
		}
	}
	return -1, -1, "", geometry.IndexSet{}
}

// withHole returns owner with the elements of hole owned by no color.
func withHole(owner *region.Partition, hole geometry.IndexSet) *region.Partition {
	subs := make([]geometry.IndexSet, owner.NumSubs())
	for k := range subs {
		subs[k] = owner.Sub(k).Subtract(hole)
	}
	return region.NewPartition(owner.Name()+"_hole", owner.Parent(), subs)
}

// TestCoverageErrors drives the executor's two coverage checks, which
// no valid program reaches: a read whose remote elements have no owner,
// and a §5.1 guarded reduction whose targets the post-launch owner map
// does not cover. Both must fail the run on node 0 with the exact text.
func TestCoverageErrors(t *testing.T) {
	const nodes = 2
	small := smallAppCases(t)

	t.Run("ghost", func(t *testing.T) {
		prog, err := small[0].build(nodes) // stencil
		if err != nil {
			t.Fatal(err)
		}
		ti, ri, f, remote := firstRemoteRead(prog)
		if ti != 0 {
			t.Fatalf("stencil's first launch reads no remote elements on node 0 (found launch %d)", ti)
		}
		req := prog.Plan.Tasks[ti].Launch.Reqs[ri]
		fk := sim.FieldKey{Region: req.Region, Field: f}
		hole := geometry.Range(remote.Intervals()[0].Lo, remote.Intervals()[0].Lo+1)
		owners := &sim.State{Owners: map[sim.FieldKey]*region.Partition{}}
		for k, p := range prog.Owners.Owners {
			owners.Owners[k] = p
		}
		owners.Owners[fk] = withHole(owners.Owners[fk], hole)
		prog.Owners = owners

		_, err = exec.Run(prog, exec.Config{Nodes: nodes, Steps: 1})
		want := fmt.Sprintf("exec: node 0: step 0, launch %s: no valid copy of %s.%s for ghost set %s (owner covers only %s)",
			prog.Plan.Tasks[ti].Launch.Name, req.Region, f, remote, remote.Subtract(hole))
		if err == nil || err.Error() != want {
			t.Fatalf("got error %v\nwant %s", err, want)
		}
	})

	t.Run("guarded", func(t *testing.T) {
		prog, err := small[4].build(nodes) // miniaero
		if err != nil {
			t.Fatal(err)
		}
		// The first guarded reduction of the plan, in launch 2; no
		// earlier launch writes its field.
		const ti = 2
		task := prog.Plan.Tasks[ti]
		ri := slices.IndexFunc(task.Launch.Reqs, func(req runtime.Requirement) bool {
			return req.Priv == runtime.Reduce && req.Guarded
		})
		if ri < 0 {
			t.Fatalf("miniaero's launch %d has no guarded reduction", ti)
		}
		req := task.Launch.Reqs[ri]
		f := req.Fields[0]
		owner := prog.Owners.Owners[sim.FieldKey{Region: req.Region, Field: f}]
		target := prog.Parts[req.Sym].Sub(0)
		if target.Empty() || !target.SubsetOf(owner.Sub(0)) {
			t.Fatalf("node 0's guarded targets %s are not all its own (%s)", target, owner.Sub(0))
		}
		// The ghost fetch of the guarded targets reads the owner at
		// launch entry, which stays intact and local; a write
		// requirement on the same field moves ownership to a partition
		// that leaves one target unowned, and the ship routes by that
		// post-launch owner.
		hole := geometry.Range(target.Intervals()[0].Lo, target.Intervals()[0].Lo+1)
		prog.Parts = maps.Clone(prog.Parts)
		prog.Parts["holed"] = withHole(owner, hole)
		l := *task.Launch
		l.Reqs = append(slices.Clone(l.Reqs), runtime.Requirement{
			Region: req.Region, Fields: []string{f}, Priv: runtime.WriteDiscard, Sym: "holed",
		})
		prog.Plan = &runtime.Plan{Tasks: slices.Clone(prog.Plan.Tasks)}
		prog.Plan.Tasks[ti].Launch = &l

		_, err = exec.Run(prog, exec.Config{Nodes: nodes, Steps: 1})
		want := fmt.Sprintf("exec: node 0: step 0, launch %s: guarded write-back of %s.%s would lose updates on unowned set %s",
			l.Name, req.Region, f, hole)
		if err == nil || err.Error() != want {
			t.Fatalf("got error %v\nwant %s", err, want)
		}
	})
}

// BenchmarkRunWide runs each small builtin on 64 in-process nodes for
// 2 steps: small shards on many nodes, where per-node work outside the
// shard (schedules, exchange sets, messages, folds) dominates.
func BenchmarkRunWide(b *testing.B) {
	const nodes, steps = 64, 2
	for _, app := range smallAppCases(b) {
		prog, err := app.build(nodes)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
