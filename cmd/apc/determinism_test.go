package main

import (
	"runtime"
	"testing"

	"autopart/internal/par"
	"autopart/pkg/autopart"
)

// builtinSources mirrors loadSource's builtin table for the benchmark
// programs under golden test.
func builtinSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, b := range []string{"spmv", "stencil", "circuit", "miniaero", "pennant"} {
		src, _, err := loadSource(b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[b] = src
	}
	return out
}

// TestSearchNodeDeterminism compiles every builtin five times with a
// forced 4-worker pool at the default GOMAXPROCS and five times under
// GOMAXPROCS=1, and requires the same search-node count, canonicalization
// map and DPL program from all ten compiles. Algorithm 3 commits the
// first solvable candidate in mapping order, so the search is a pure
// function of the source; MiniAero's count is pinned exactly.
func TestSearchNodeDeterminism(t *testing.T) {
	const miniAeroNodes = 553
	for name, src := range builtinSources(t) {
		t.Run(name, func(t *testing.T) {
			var compiles []*autopart.Compiled
			compile := func(mode string) {
				for i := 0; i < 5; i++ {
					c, err := autopart.Compile(src, autopart.Options{})
					if err != nil {
						t.Fatalf("%s compile %d: %v", mode, i, err)
					}
					compiles = append(compiles, c)
				}
			}
			defer par.SetWorkers(0)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			par.SetWorkers(4)
			compile("4 workers")
			par.SetWorkers(0)
			runtime.GOMAXPROCS(1)
			compile("GOMAXPROCS=1")

			want := compiles[0].Solution
			if name == "miniaero" && want.Stats.Nodes != miniAeroNodes {
				t.Errorf("search nodes = %d, want %d", want.Stats.Nodes, miniAeroNodes)
			}
			for i, c := range compiles[1:] {
				got := c.Solution
				if got.Stats.Nodes != want.Stats.Nodes {
					t.Errorf("compile %d: search nodes %d, first compile %d", i+1, got.Stats.Nodes, want.Stats.Nodes)
				}
				if len(got.Canon) != len(want.Canon) {
					t.Errorf("compile %d: Canon size %d, first compile %d", i+1, len(got.Canon), len(want.Canon))
				}
				for sym, w := range want.Canon {
					if g, ok := got.Canon[sym]; !ok || g != w {
						t.Errorf("compile %d: Canon[%q] = %q (present=%v), first compile %q", i+1, sym, g, ok, w)
					}
				}
				if g, w := got.Program.String(), want.Program.String(); g != w {
					t.Errorf("compile %d: DPL program differs:\n--- first ---\n%s\n--- this ---\n%s", i+1, w, g)
				}
			}
		})
	}
}
