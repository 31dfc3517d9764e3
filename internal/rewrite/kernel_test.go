package rewrite

import (
	"reflect"
	"sync"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/region"
)

// bindAll binds pl's iteration symbol to an equal split of iterRegion and
// every access symbol to a partition whose every color is its whole
// region, so containment checks always pass.
func bindAll(pl *ParallelLoop, m *ir.Machine, iterRegion string, colors int) map[string]*region.Partition {
	parts := map[string]*region.Partition{
		pl.IterSym: region.Equal(pl.IterSym, m.Regions[iterRegion], colors),
	}
	for _, info := range pl.Access {
		r := m.Regions[info.Region]
		subs := make([]geometry.IndexSet, colors)
		for i := range subs {
			subs[i] = r.Space()
		}
		parts[info.Sym] = region.NewPartition(info.Sym, r, subs)
	}
	return parts
}

const stencilSrc = `
region R { v: scalar, w: scalar }
function f : R -> R
for i in R {
  R[i].w = R[i].v
  if (f(i) in R) {
    R[i].w += R[f(i)].v
  }
}
`

func stencilMachine(n int64) *ir.Machine {
	r := region.New("R", n)
	r.AddScalarField("v")
	r.AddScalarField("w")
	for i := range r.Scalar("v") {
		r.Scalar("v")[i] = float64(i % 7)
	}
	clamp := geometry.Interval{Lo: 0, Hi: n}
	return ir.NewMachine().AddRegion(r).AddFunc("f", geometry.AffineMap{Name: "f", Stride: 1, Offset: 1, Clamp: &clamp})
}

// TestRunShardAllocsFlat pins that a shard's allocations do not grow
// with its size when the loop has no buffered reductions: frames,
// bindings and overlays are allocated once per shard, never per element.
func TestRunShardAllocsFlat(t *testing.T) {
	plans, sol, priv := compile(t, stencilSrc, false)
	pl := Build(plans, sol, priv)[0]
	allocs := func(n int64) float64 {
		m := stencilMachine(n)
		parts := bindAll(pl, m, "R", 2)
		return testing.AllocsPerRun(20, func() {
			if _, err := RunShard(m, parts, pl, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("RunShard allocations grow with the shard: %v at 500 elements, %v at 5000", small, large)
	}
}

const mixedSrc = `
region Faces { c1: index(Cells), flux: scalar, out: scalar }
region Cells { res: scalar }
for f in Faces {
  Faces[f].out = Faces[f].flux * 2
  Cells[Faces[f].c1].res += Faces[f].flux
}
`

func mixedMachine() *ir.Machine {
	faces := region.New("Faces", 64)
	faces.AddIndexField("c1")
	faces.AddScalarField("flux")
	faces.AddScalarField("out")
	cells := region.New("Cells", 16)
	cells.AddScalarField("res")
	for i := range faces.Index("c1") {
		faces.Index("c1")[i] = int64(i*5) % 16
		faces.Scalar("flux")[i] = float64(i % 9)
	}
	return ir.NewMachine().AddRegion(faces).AddRegion(cells)
}

// TestRunShardConcurrent runs one fresh loop's kernel from 8 goroutines
// at once (its first use compiles it) and checks every shard result
// against the same shard run alone on a separately built loop.
func TestRunShardConcurrent(t *testing.T) {
	plans, sol, priv := compile(t, mixedSrc, false)
	ref := Build(plans, sol, priv)[0]
	m := mixedMachine()
	parts := bindAll(ref, m, "Faces", 2)
	want := make([]*ShardResult, 2)
	for color := range want {
		res, err := RunShard(m, parts, ref, color)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Writes) == 0 || len(res.Reductions) == 0 {
			t.Fatalf("color %d: shard should both write and reduce: %+v", color, res)
		}
		want[color] = res
	}

	pl := Build(plans, sol, priv)[0]
	got := make([]*ShardResult, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = RunShard(m, parts, pl, g%2)
		}()
	}
	wg.Wait()
	for g, res := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(res, want[g%2]) {
			t.Errorf("goroutine %d: shard result differs from a lone run of color %d", g, g%2)
		}
	}
}

// TestRunShardErrors pins the kernel's error texts: each names the task,
// the iteration and the failing statement the way the executor's
// callers and tests match on.
func TestRunShardErrors(t *testing.T) {
	newMachine := func() *ir.Machine {
		r := region.New("R", 4)
		r.AddScalarField("v")
		return ir.NewMachine().AddRegion(r).
			AddFunc("f", geometry.TableMap{Name: "f", Table: []int64{-1, 0, 1, 2}})
	}
	m := newMachine()
	r := m.Regions["R"]
	parts := map[string]*region.Partition{
		"I": region.NewPartition("I", r, []geometry.IndexSet{r.Space()}),
		"P": region.NewPartition("P", r, []geometry.IndexSet{geometry.Range(0, 2)}),
	}
	load := func(idx, sym string) (ir.Stmt, *AccessInfo) {
		return &ir.Load{Var: "y", Region: "R", Field: "v", Idx: idx}, &AccessInfo{Sym: sym, Region: "R", Field: "v"}
	}
	cases := []struct {
		name  string
		stmts func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo)
		iter  string
		want  string
	}{
		{"escapes subregion", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s, a := load("i", "P")
			return []ir.Stmt{s}, map[ir.Stmt]*AccessInfo{s: a}
		}, "I", "task 0, iteration 2: access R[2].v escapes subregion P[0] — unsound partitioning"},
		{"unbound index variable", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s, a := load("x", "P")
			return []ir.Stmt{s}, map[ir.Stmt]*AccessInfo{s: a}
		}, "I", `task 0, iteration 0: y = R[x].v: unbound variable "x"`},
		{"unbound scalar variable", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s := &ir.LetScalar{Var: "t", Rhs: ir.BinExpr{Op: "+", L: ir.VarExpr{Name: "z"}, R: ir.Const{V: 1}}}
			return []ir.Stmt{s}, nil
		}, "I", `task 0, iteration 0: t = (z + 1): unbound variable "z"`},
		{"invalid index", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s, a := load("j", "P")
			return []ir.Stmt{&ir.Apply{Var: "j", Func: "f", Arg: "i"}, s}, map[ir.Stmt]*AccessInfo{s: a}
		}, "I", `task 0, iteration 0: y = R[j].v: variable "j" holds an invalid index`},
		{"unbound access partition", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s, a := load("i", "Q")
			return []ir.Stmt{s}, map[ir.Stmt]*AccessInfo{s: a}
		}, "I", `task 0, iteration 0: unbound partition "Q"`},
		{"unbound guarded partition", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			s := &ir.Store{Region: "R", Field: "v", Idx: "i", Op: lang.ReduceOp("+="), Rhs: ir.Const{V: 1}}
			return []ir.Stmt{s}, map[ir.Stmt]*AccessInfo{s: {Sym: "Q", Region: "R", Field: "v", Guarded: true}}
		}, "I", `task 0, iteration 0: R[i].v += 1: unbound partition "Q"`},
		{"unbound iteration partition", func() ([]ir.Stmt, map[ir.Stmt]*AccessInfo) {
			return nil, nil
		}, "J", `launch parallel for (i in J[·]): unbound iteration partition "J"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmts, access := tc.stmts()
			pl := &ParallelLoop{Loop: &ir.Loop{Var: "i", Region: "R", Stmts: stmts}, IterSym: tc.iter, Access: access}
			_, err := RunShard(m, parts, pl, 0)
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v\nwant %s", err, tc.want)
			}
		})
	}
}
