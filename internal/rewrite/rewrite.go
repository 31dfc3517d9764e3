// Package rewrite turns inferred + solved loops into their parallel form
// (Fig. 1b / Fig. 11c): every region access is redirected to a subregion
// of its partition, relaxed reductions receive membership guards, and an
// executor runs the task launches with parallel semantics — snapshot
// isolation between tasks, reduction buffers for uncentered reductions,
// and containment checks that turn any constraint violation into an
// error instead of silent corruption.
package rewrite

import (
	"fmt"
	"sort"
	"sync"

	"autopart/internal/infer"
	"autopart/internal/ir"
	"autopart/internal/lang"
	"autopart/internal/optimize"
	"autopart/internal/solver"
)

// AccessInfo describes how one region-accessing IR statement executes in
// the parallel form.
type AccessInfo struct {
	// Sym is the canonical partition symbol whose color-j subregion the
	// task accesses.
	Sym    string
	Kind   infer.AccessKind
	Op     lang.ReduceOp
	Region string
	Field  string
	// Centered: indexed by the loop variable (or an alias).
	Centered bool
	// Guarded: §5.1 relaxation applies — the reduction executes only
	// when the target index falls in this task's subregion.
	Guarded bool
	// Buffered: an unrelaxed uncentered reduction that needs a
	// reduction buffer merged after the launch.
	Buffered bool
	// PrivateSym, when non-empty, names the §5.2 private sub-partition:
	// the buffer is only needed for the shared remainder.
	PrivateSym string
}

// ParallelLoop is one rewritten loop: the task launch of Fig. 1b.
type ParallelLoop struct {
	Loop    *ir.Loop
	IterSym string
	Relaxed bool
	// Access maps each region-accessing IR statement to its execution
	// plan.
	Access map[ir.Stmt]*AccessInfo

	// compiled is the loop's shard kernel, built once on the first
	// RunShard and shared by every node and shard that runs the loop.
	compileOnce sync.Once
	compiled    *kernel
}

// Symbols returns the canonical partition symbols used by the launch
// (iteration symbol first, accesses sorted), deduplicated.
func (pl *ParallelLoop) Symbols() []string {
	seen := map[string]bool{pl.IterSym: true}
	out := []string{pl.IterSym}
	var rest []string
	for _, a := range pl.Access {
		if !seen[a.Sym] {
			seen[a.Sym] = true
			rest = append(rest, a.Sym)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Build assembles the parallel form of every loop from the optimizer's
// plans, the solver's solution, and the private sub-partition plan (may
// be nil).
func Build(plans []*optimize.LoopPlan, sol *solver.Solution, priv *optimize.PrivatePlan) []*ParallelLoop {
	var out []*ParallelLoop
	for _, plan := range plans {
		pl := &ParallelLoop{
			Loop:    plan.Res.Loop,
			IterSym: sol.Resolve(plan.Res.IterSym),
			Relaxed: plan.Relaxed,
			Access:  map[ir.Stmt]*AccessInfo{},
		}
		guarded := map[string]bool{}
		for _, sym := range plan.GuardedSyms {
			guarded[sym] = true
		}
		for _, a := range plan.Res.Accesses {
			info := &AccessInfo{
				Sym:      sol.Resolve(a.Sym),
				Kind:     a.Kind,
				Op:       a.Op,
				Region:   a.Region,
				Field:    a.Field,
				Centered: a.Centered,
			}
			if a.Kind == infer.ReduceAccess && !a.Centered {
				if plan.Relaxed && guarded[a.Sym] {
					info.Guarded = true
				} else {
					info.Buffered = true
					if priv != nil {
						info.PrivateSym = priv.PrivateOf[info.Sym]
					}
				}
			}
			pl.Access[a.Stmt] = info
		}
		out = append(out, pl)
	}
	return out
}

func (pl *ParallelLoop) String() string {
	mode := ""
	if pl.Relaxed {
		mode = " (relaxed)"
	}
	return fmt.Sprintf("parallel for (%s in %s[·])%s", pl.Loop.Var, pl.IterSym, mode)
}
