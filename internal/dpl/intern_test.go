package dpl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestInternStructuralIdentity pins the sharded interner's contract:
// structurally equal expressions share one id no matter how they were
// constructed, and structurally distinct expressions never do.
func TestInternStructuralIdentity(t *testing.T) {
	mk := func() Expr {
		return ImageExpr{Of: Var{Name: "P1"}, Func: "cell", Region: "Cells"}
	}
	a, b := mk(), mk()
	if ID(a) != ID(b) {
		t.Error("equal ImageExprs got distinct ids")
	}

	nested1 := BinExpr{Op: OpUnion, L: mk(), R: Var{Name: "P2"}}
	nested2 := BinExpr{Op: OpUnion, L: mk(), R: Var{Name: "P2"}}
	if ID(nested1) != ID(nested2) {
		t.Error("equal BinExprs got distinct ids")
	}
	if ID(nested1) == ID(a) {
		t.Error("distinct expressions share an id")
	}

	// Same fields, different constructor: image vs IMAGE must not collide
	// even though their shard keys are identical word-for-word.
	multi := ImageMultiExpr{Of: Var{Name: "P1"}, Func: "cell", Region: "Cells"}
	if ID(multi) == ID(a) {
		t.Error("ImageExpr and ImageMultiExpr with equal fields share an id")
	}

	// preimage argument order: same strings, different roles.
	pre1 := PreimageExpr{Region: "Cells", Func: "cell", Of: Var{Name: "P1"}}
	if ID(pre1) == ID(a) {
		t.Error("preimage collides with image")
	}

	if Hash128(a) != Hash128(b) {
		t.Error("equal expressions got distinct content hashes")
	}
}

// TestInternConcurrent hammers the shards from many goroutines to
// catch lost inserts or duplicate ids under the race detector.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const exprs = 64
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint64, exprs)
			for i := 0; i < exprs; i++ {
				e := ImageExpr{
					Of:     Var{Name: fmt.Sprintf("C%02d", i)},
					Func:   "f",
					Region: "R",
				}
				ids[g][i] = ID(e)
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < exprs; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d saw id %d for expr %d, goroutine 0 saw %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
}

// TestInternPublishKeepsEntries interns enough distinct expressions on a
// fresh table, from several goroutines in different orders, that every
// shard folds its recent inserts into the published map many times. Each
// expression must keep one id through all of that, and the per-shard
// sizes must add up to the entry count.
func TestInternPublishKeepsEntries(t *testing.T) {
	const goroutines = 4
	const exprs = 3000
	tab := NewTable()
	expr := func(i int) Expr {
		v := Var{Name: fmt.Sprintf("V%d", i%50)}
		if i%2 == 0 {
			return BinExpr{Op: OpUnion, L: v, R: ImageExpr{Of: v, Func: fmt.Sprintf("f%d", i), Region: "R"}}
		}
		return PreimageExpr{Of: v, Func: fmt.Sprintf("g%d", i), Region: "R"}
	}
	// Each goroutine visits every expression once, in its own order:
	// the strides are coprime with exprs.
	strides := [goroutines]int{1, 7, 11, 13}
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint64, exprs)
			for k := 0; k < exprs; k++ {
				i := (k*strides[g] + g*exprs/goroutines) % exprs
				ids[g][i] = tab.ID(expr(i))
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]int{}
	for i := 0; i < exprs; i++ {
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("expr %d: goroutine %d saw id %d, goroutine 0 saw %d", i, g, ids[g][i], ids[0][i])
			}
		}
		if j, dup := seen[ids[0][i]]; dup {
			t.Fatalf("exprs %d and %d share id %d", j, i, ids[0][i])
		}
		seen[ids[0][i]] = i
		if got := tab.ID(expr(i)); got != ids[0][i] {
			t.Fatalf("expr %d: id changed from %d to %d", i, ids[0][i], got)
		}
	}
	total := 0
	for _, st := range tab.Stats() {
		total += st.Entries
	}
	if total != tab.Entries() {
		t.Errorf("shard sizes add up to %d, table has %d entries", total, tab.Entries())
	}
	// 50 vars, 1500 unions and their 1500 images, 1500 preimages.
	if want := 50 + exprs/2 + exprs/2 + exprs/2; tab.Entries() != want {
		t.Errorf("table has %d entries, want %d", tab.Entries(), want)
	}
}

// TestInternInsertCostFlat checks that a first sight costs the same on
// a large table as on a small one. An insert that copies its shard
// would allocate bytes in proportion to the table: ten times the
// entries, ten times the bytes per insert.
func TestInternInsertCostFlat(t *testing.T) {
	perInsert := func(n int) float64 {
		exprs := make([]Expr, n)
		for i := range exprs {
			exprs[i] = ImageExpr{Of: Var{Name: "P"}, Func: fmt.Sprintf("f%d", i), Region: "R"}
		}
		tab := NewTable()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, e := range exprs {
			tab.ID(e)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perInsert(2000), perInsert(20000)
	if large > 2*small {
		t.Errorf("bytes allocated per insert: %.0f at 20000 entries, %.0f at 2000", large, small)
	}
}

func TestInternStats(t *testing.T) {
	EnableInternStats(true)
	defer EnableInternStats(false)

	e := ImageExpr{Of: Var{Name: "StatsP"}, Func: "sf", Region: "SR"}
	ID(e) // miss or hit depending on prior tests — just prime it
	EnableInternStats(true)
	for i := 0; i < 10; i++ {
		ID(e)
	}
	stats := InternStats()
	var img, vars *InternShardStat
	for i := range stats {
		switch stats[i].Shard {
		case "image":
			img = &stats[i]
		case "var":
			vars = &stats[i]
		}
	}
	if img == nil || vars == nil {
		t.Fatalf("missing shards in %v", stats)
	}
	if img.Hits < 10 {
		t.Errorf("image shard hits = %d, want >= 10", img.Hits)
	}
	// Each ImageExpr lookup interns its operand first.
	if vars.Hits < 10 {
		t.Errorf("var shard hits = %d, want >= 10", vars.Hits)
	}
	if img.Entries == 0 || vars.Entries == 0 {
		t.Errorf("empty shard entry counts: %+v %+v", img, vars)
	}
	if img.Misses != 0 {
		t.Errorf("warm lookups recorded %d misses", img.Misses)
	}
}

func BenchmarkInternHit(b *testing.B) {
	e := BinExpr{
		Op: OpIntersect,
		L:  ImageExpr{Of: Var{Name: "BP1"}, Func: "bf", Region: "BR"},
		R:  PreimageExpr{Region: "BR", Func: "bg", Of: Var{Name: "BP2"}},
	}
	ID(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ID(e)
	}
}
