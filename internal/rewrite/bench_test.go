package rewrite_test

import (
	"testing"

	"autopart/internal/apps/pennant"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
	"autopart/internal/rewrite"
	"autopart/pkg/autopart"
)

// BenchmarkRunShard runs color 0's shard of every launch of one step, at
// the per-node sizes of cmd/run -size default, without flushing: the
// kernel's cost alone, reads served from the program's initial data.
func BenchmarkRunShard(b *testing.B) {
	apps := []struct {
		name  string
		src   string
		build func(c *autopart.Compiled) (*exec.Program, error)
	}{
		{"stencil", stencil.Source(), func(c *autopart.Compiled) (*exec.Program, error) {
			return stencil.Executable(stencil.DefaultConfig(), c, 2)
		}},
		{"pennant-h2", pennant.HintSource(2), func(c *autopart.Compiled) (*exec.Program, error) {
			return pennant.Executable(pennant.DefaultConfig(), c, 2, 2)
		}},
	}
	for _, app := range apps {
		b.Run(app.name, func(b *testing.B) {
			c, err := autopart.Compile(app.src, autopart.Options{})
			if err != nil {
				b.Fatal(err)
			}
			prog, err := app.build(c)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range prog.Plan.Tasks {
					if _, err := rewrite.RunShard(prog.Machine, prog.Parts, t.Loop, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
