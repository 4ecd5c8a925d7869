// Algorithm zoo: run all five 2D GeMM algorithms (and the 1D baselines) on
// the same matrices over the functional mesh, check they agree exactly,
// then contrast their simulated timelines on a communication-bound problem
// — a textual version of the paper's Fig. 4.
package main

import (
	"fmt"
	"math/rand"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func main() {
	// --- Functional agreement on a square mesh (the only shape Cannon
	// supports), OS dataflow, real data.
	tor := topology.NewTorus(4, 4)
	prob := gemm.Problem{M: 64, N: 64, K: 64, Dataflow: gemm.OS}
	rng := rand.New(rand.NewSource(7))
	a := tensor.Random(prob.M, prob.K, rng)
	b := tensor.Random(prob.K, prob.N, rng)
	want := prob.Reference(a, b)

	funcs := []struct {
		name string
		fn   gemm.ChipFunc
	}{
		{"MeshSlice", gemm.MeshSlice(gemm.OS, gemm.MeshSliceConfig{S: 4, Block: 2})},
		{"MeshSlice+", gemm.MeshSlice(gemm.OS, gemm.MeshSliceConfig{S: 4, Block: 2, Pipelined: true})},
		// Collective 2D GeMM is MeshSlice with a single slice.
		{"Collective", gemm.Collective2D(gemm.OS)},
		{"SUMMA", gemm.SUMMA(gemm.OS, gemm.SUMMAConfig{})},
		{"Cannon", gemm.Cannon()},
		{"Wang", gemm.Wang(gemm.OS, false)},
		{"Wang+", gemm.Wang(gemm.OS, true)},
	}
	fmt.Printf("functional check on %v (C = A·B, 64×64×64; + = double-buffered):\n", tor)
	for _, f := range funcs {
		got := gemm.Multiply(tor, f.fn, a, b)
		fmt.Printf("  %-10s max |Δ| = %.2e\n", f.name, got.MaxAbsDiff(want))
	}

	// --- Simulated timelines at LLM scale: who exposes how much
	// communication (Fig. 4 in numbers).
	chip := hw.TPUv4()
	big := gemm.Problem{M: 1 << 16, N: 12288, K: 12288, Dataflow: gemm.OS}
	simTor := topology.NewTorus(8, 8)
	progs := []*sched.Program{
		sched.MeshSliceProgram(big, simTor, chip, 8),
		sched.CollectiveProgram(big, simTor, chip),
		sched.SUMMAProgram(big, simTor, chip, 8),
		sched.CannonProgram(big, simTor, chip),
		sched.WangProgram(big, simTor, chip, 8),
	}
	fmt.Printf("\nsimulated timelines on %v (M=%d N=%d K=%d):\n", simTor, big.M, big.N, big.K)
	fmt.Printf("  %-18s %-10s %-10s %-10s %s\n", "algorithm", "makespan", "compute", "comm", "exposed comm")
	for _, p := range progs {
		r := netsim.Simulate(p, chip, netsim.Options{})
		fmt.Printf("  %-18s %-10s %-10s %-10s %s\n",
			p.Label,
			fmt.Sprintf("%.3fms", r.Makespan*1e3),
			fmt.Sprintf("%.3fms", r.ComputeBusy*1e3),
			fmt.Sprintf("%.3fms", r.Comm.Total()*1e3),
			fmt.Sprintf("%.3fms", r.ExposedComm*1e3))
	}
	fmt.Println("\nMeshSlice overlaps both directions; Wang exposes one; Collective exposes both;")
	fmt.Println("SUMMA pays bcast bubbles and syncs; Cannon pays skewing traffic.")
}
