package main

// The benchmark's workloads and metrics. BENCHMARK.json at the repository
// root lists the same names and units; a test keeps the two in step.

var workloads = []workload{
	{
		name: wlTransformer,
		why:  "kernel-bound: a 2-layer transformer TrainStack step on a 2x2 mesh with serial MeshSlice, where tensor kernels dominate; CPU host, so no accelerator utilisation is reported",
		setup: func(seed int64) (instance, error) {
			return newTransformerInst(transformerWorkload, seed)
		},
	},
	{
		name: wlMLP,
		why:  "runtime/comm-bound: a pipelined MeshSlice MLP TrainDistributed step on a 4x4 mesh, 16 chip goroutines on few cores, where collective, mesh and gemm dominate",
		setup: func(seed int64) (instance, error) {
			return newMLPInst(mlpWorkload, seed)
		},
	},
	{
		name: wlSim,
		why:  "the paper's evaluation loop: tune, build and simulate GPT-3's FC block on 64 chips; sim_fc_ms and costmodel.err_pct are simulated and unvalidated against real TPUs",
		setup: func(seed int64) (instance, error) {
			return newSimInst(gpt3Workload)
		},
	},
	{
		name: wlServe,
		why:  "serving tuner over seeded Poisson traces of Llama-3-70B requests on 64 chips, priced by serve/cost.go, not netsim; sim_goodput_rps is simulated and unvalidated against real TPUs",
		setup: func(seed int64) (instance, error) {
			return newServeInst(llamaServeWorkload, seed)
		},
	},
}

func isFunctional(name string) bool { return name == wlTransformer || name == wlMLP }

// endToEnd lists the untraced metrics every workload reports.
// gflop_per_s is one step's model GeMM FLOPs over the median step time:
// executed FLOPs on the functional workloads, simulated FLOPs priced per
// host second on the simulator workloads. Nothing here is an accelerator
// utilisation: the host is a CPU.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"step_ms.p50", "ms"},
	{"step_ms.p90", "ms"},
	{"gflop_per_s", "GFLOP/s"},
	{"allocs_per_step", "count"},
	{"peak_rss_mb", "MB"},
}

// layerMetric is a per-layer metric of the traced run, with the workload
// it is measured on ("functional" for both training workloads, "all" for
// every workload) and the end-to-end metric it should move there. A
// workload that does not exercise a metric's layer reports it as 0.
type layerMetric struct {
	name, unit, workload, target string
}

const (
	wlTransformer = "train-transformer-2x2"
	wlMLP         = "mlp-comm-4x4"
	wlSim         = "sim-gpt3-64"
	wlServe       = "serve-tune-llama70b-64"
)

var perLayer = []layerMetric{
	{"tensor.nn.calls", "count", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.nt.calls", "count", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.tn.calls", "count", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.nn.ms", "ms", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.nt.ms", "ms", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.tn.ms", "ms", "functional", "step_ms.p50 and gflop_per_s on " + wlTransformer},
	{"tensor.gflop_per_s", "GFLOP/s", "functional", "gflop_per_s on " + wlTransformer},
	{"transformer.fwd_ms", "ms", wlTransformer, "step_ms.p50 and gflop_per_s"},
	{"transformer.bwd_ms", "ms", wlTransformer, "step_ms.p50 and gflop_per_s"},
	{"collective.allgather.calls", "count", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"collective.allgather.ms", "ms", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"collective.reducescatter.calls", "count", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"collective.reducescatter.ms", "ms", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"collective.allreduce.calls", "count", wlMLP, "step_ms.p50 and step_ms.p90"},
	{"collective.allreduce.ms", "ms", wlMLP, "step_ms.p50 and step_ms.p90"},
	{"collective.gb_per_s", "GB/s", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"mesh.msgs_per_step", "count", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"mesh.mb_per_step", "MB", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"mesh.run_us", "us", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"mesh.roundtrip_us", "us", "functional", "step_ms.p50 and step_ms.p90 on " + wlMLP},
	{"gemm.os.ms", "ms", "functional", "step_ms.p50"},
	{"gemm.ls.ms", "ms", "functional", "step_ms.p50"},
	{"gemm.rs.ms", "ms", "functional", "step_ms.p50"},
	{"gemm.chip_skew", "ratio", "functional", "step_ms.p90"},
	{"gemm.wait_ms", "est_ms", "functional", "step_ms.p50"},
	{"gemm.overlap_fraction", "ratio", "functional", "step_ms.p50 on " + wlMLP + " (reads 0 on the serial " + wlTransformer + ")"},
	{"autotune.tunepass.calls", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"autotune.tunepass.ms", "ms", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"autotune.costmodel_calls", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"autotune.feasible_ratio", "ratio", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"costmodel.err_pct", "%", wlSim, "sim_fc_ms"},
	{"sched.build.calls", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"sched.build.ms", "ms", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"sched.ops", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"netsim.calls", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"netsim.ms", "ms", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"netsim.events", "count", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"netsim.events_per_s", "1/s", wlSim, "step_ms.p50 (sim_fc_ms unchanged)"},
	{"sim_fc_ms", "sim_ms", wlSim, "the simulated FC time itself; unvalidated against real TPUs"},
	{"serve.candidates", "count", wlServe, "step_ms.p50"},
	{"serve.feasible_ratio", "ratio", wlServe, "step_ms.p50"},
	{"serve.run_ms", "ms", wlServe, "step_ms.p50"},
	{"serve.sched_steps", "count", wlServe, "step_ms.p50"},
	{"serve.us_per_sched_step", "us", wlServe, "step_ms.p50"},
	{"serve.preemptions", "count", wlServe, "sim_goodput_rps"},
	{"sim_goodput_rps", "sim_rps", wlServe, "the simulated goodput itself; unvalidated against real TPUs"},
	{"trace.overhead_pct", "%", "all", "none: the composed step's median with spans against its median without"},
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
