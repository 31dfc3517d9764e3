package main

// metricDef names one metric of BENCHMARK.json. The benchmark prints
// exactly these names on its last line: the end-to-end ones from an
// untraced run, the per-layer ones from a traced run.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics apply to every workload; each workload's operation
// gives them their meaning (see aliases and README.md): a compile on
// compile-cold, an incremental recompile on service-edits, one main-loop
// step of an executor run on exec-proc and exec-wide.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// aliases gives, per workload, the name each end-to-end metric has in
// the benchmark's design (compile_ms_p99, step_ms_geomean, ...). The
// results file records both names.
var aliases = map[string]map[string]string{
	"compile-cold": {
		"op_ms_p50": "compile_ms_p50", "op_ms_tail": "compile_ms_p99", "ops_per_s": "compiles_per_s",
	},
	"service-edits": {
		"op_ms_p50": "recompile_ms_p50", "op_ms_tail": "recompile_ms_p90", "ops_per_s": "recompiles_per_s",
	},
	"exec-proc": {
		"op_ms_p50": "step_ms_geomean", "op_ms_tail": "step_ms_max", "ops_per_s": "steps_per_s",
	},
	"exec-wide": {
		"op_ms_p50": "step_ms_geomean", "op_ms_tail": "step_ms_max", "ops_per_s": "steps_per_s",
	},
}

var (
	passNames    = []string{"parse", "check", "normalize", "infer", "relax", "solve", "private", "rewrite"}
	inputClasses = []string{"builtin", "synth", "gen"}
	execApps     = []string{"stencil", "circuit", "circuit-hint", "spmv", "miniaero", "pennant-h2"}
)

// gomaxprocs1Metrics are repeated, with a ".gomaxprocs1" suffix, from
// a second traced pass at GOMAXPROCS=1: they show what the par.Do sites
// under them cost or save.
var gomaxprocs1Metrics = []string{"solver.unify_us", "solver.unify_us.miniaero", "pass.solve_us.builtin", "app.instantiate_ms"}

// perLayer lists the traced run's metrics. A workload that does not
// reach a layer reports 0 for its metrics and lists them under
// "not_exercised" in the results file.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, p := range passNames {
		for _, c := range inputClasses {
			add("pass."+p+"_us."+c, "us", "lower")
		}
	}
	add("solver.unify_us", "us", "lower")
	add("solver.unify_us.miniaero", "us", "lower")
	add("solver.search_nodes", "count", "lower")
	add("solver.memo_hit_rate", "ratio", "higher")
	add("solver.closed_hit_rate", "ratio", "higher")
	add("solver.node_hits", "count", "higher")
	add("solver.graph_builds", "count", "lower")
	add("solver.graph_extends", "count", "lower")
	add("solver.unify_round_hit_rate", "ratio", "higher")
	add("dpl.intern_hit_rate", "ratio", "higher")
	add("compile.alloc_mb_per_op", "MB", "lower")
	add("compile.slow_gen_ms", "ms", "lower")
	add("service.memo_hit_rate", "ratio", "higher")
	add("service.clean_loop_ratio", "ratio", "higher")
	add("service.cold_fallbacks", "count", "lower")
	add("service.intern_entries", "count", "lower")
	add("service.intern_reclaims", "count", "lower")
	add("app.instantiate_ms", "ms", "lower")
	for _, a := range execApps {
		add("rewrite.ref_ms_per_step."+a, "ms", "lower")
	}
	add("exec.launch_wall_ms", "ms", "lower")
	add("exec.compute_ms", "ms-window", "lower")
	add("exec.wait_ms", "ms", "lower")
	add("exec.overlap_ratio", "ratio", "higher")
	add("exec.alloc_mb_per_step", "MB", "lower")
	add("exec.gc_cpu_frac", "ratio", "lower")
	for _, a := range execApps {
		add("exec.bytes_per_step."+a, "bytes", "lower")
	}
	for _, a := range execApps {
		add("exec.msgs_per_step."+a, "count", "lower")
	}
	for _, a := range execApps {
		add("app.step_ms."+a, "ms", "lower")
	}
	add("progwire.program_bytes", "bytes", "lower")
	add("progwire.encode_ms", "ms", "lower")
	add("progwire.decode_ms", "ms", "lower")
	add("cluster.overhead_ms", "ms", "lower")
	for _, m := range gomaxprocs1Metrics {
		unit := "us"
		if m == "app.instantiate_ms" {
			unit = "ms"
		}
		add(m+".gomaxprocs1", unit, "lower")
	}
	add("sim.crosscheck_ms", "ms", "lower")
	add("trace.overhead.op_ms_p50", "ms", "lower")
	add("trace.overhead.op_ms_tail", "ms", "lower")
	add("trace.overhead.ops_per_s", "1/s", "higher")
	return out
}
