package costmodel

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// MeshSliceEval holds the MeshSlice cost model (see MeshSlice) for one
// (problem, torus, chip) with its S-independent terms prepared, so a
// slice-count sweep — the autotuner's inner loop — only pays the per-S
// arithmetic instead of re-deriving every shard size and re-copying the
// chip calibration on each call. MeshSlice is Estimate on a fresh
// evaluator, so the model is written once; TestMeshSliceEvalBitIdentical
// pins its numbers bit for bit.
type MeshSliceEval struct {
	c  hw.Chip
	df gemm.Dataflow

	ring1, ring2 int

	// Raw dimensions still needed per S.
	m, n, k, pr, pc float64

	// Hoisted S-independent subexpressions; see Estimate for how each
	// dataflow combines them.
	b1, b2, h1, h3, f1 float64
}

// NewMeshSliceEval prepares the evaluator. The per-dataflow constants are
// the subexpressions of the model that do not involve fS.
func NewMeshSliceEval(p gemm.Problem, t topology.Torus, c hw.Chip) MeshSliceEval {
	e := MeshSliceEval{
		c: c, df: p.Dataflow,
		m: float64(p.M), n: float64(p.N), k: float64(p.K),
		pr: float64(t.Rows), pc: float64(t.Cols),
	}
	m, n, k, pr, pc := e.m, e.n, e.k, e.pr, e.pc
	switch p.Dataflow {
	case gemm.OS:
		e.ring1, e.ring2 = t.Cols, t.Rows
		e.b1 = m / pr * k / pc // AG_col A_s byte base
		e.b2 = k / pr * n / pc // AG_row B_s byte base
		e.h1 = m / pr * k      // HBM: streamed A panel
		e.h3 = 2 * m / pr * n / pc
		e.f1 = 2 * m / pr * n / pc * k
	case gemm.LS:
		e.ring1, e.ring2 = t.Rows, t.Cols
		e.b1 = n / pr * k / pc // AG_row B_s byte base
		e.b2 = m / pr          // RdS_col C_s: per-S (b2*(n/fS))/pc
		e.h1 = m / pr * k / pc // HBM: resident A shard
		e.h3 = 2 * m / pr
		e.f1 = 2 * m / pr
	case gemm.RS:
		e.ring1, e.ring2 = t.Cols, t.Rows
		e.b1 = k / pr * m / pc // AG_col A_s byte base
		e.h1 = k / pr          // HBM: streamed A slice factor
		e.h3 = k / pr * n / pc
	default:
		panic(fmt.Sprintf("costmodel: unknown dataflow %d", int(p.Dataflow))) // lint:invariant exhaustive switch guard
	}
	return e
}

// terms evaluates the per-iteration costs at slice count S: per slice, the
// two collectives (the first precedes the MatMul; the second is the other
// gather under OS, the reduce-scatter after it under LS/RS) and the
// compute. Compute uses the roofline, FLOPs at effective throughput against
// operand streaming at HBM bandwidth: training GeMMs are compute-bound, so
// this matches the paper's pure-FLOPs model, while inference-decode GeMMs
// become memory-bound (§6).
func (e *MeshSliceEval) terms(S int) (comm1, comm2, compute, commFirst, tailAfterCompute float64) {
	if S <= 0 {
		panic(fmt.Sprintf("costmodel: S=%d", S)) // lint:invariant slice-count precondition
	}
	fS := float64(S)
	c := &e.c
	bpe := c.BytesPerElement
	switch e.df {
	case gemm.OS:
		comm1 = RingCollective(e.c, e.ring1, e.b1/fS*bpe)
		comm2 = RingCollective(e.c, e.ring2, e.b2/fS*bpe)
		hbm := (e.h1/fS + e.k/fS*e.n/e.pc + e.h3) * bpe
		compute = c.RooflineTime(e.f1/fS, hbm)
		commFirst = maxf(comm1, comm2)
		tailAfterCompute = 0
	case gemm.LS:
		comm1 = RingCollective(e.c, e.ring1, e.b1/fS*bpe)
		comm2 = RingCollective(e.c, e.ring2, e.b2*(e.n/fS)/e.pc*bpe)
		hbm := (e.h1 + (e.n/fS)*e.k/e.pc + e.h3*(e.n/fS)) * bpe
		compute = c.RooflineTime(e.f1*(e.n/fS)*e.k/e.pc, hbm)
		commFirst = comm1
		tailAfterCompute = comm2
	case gemm.RS:
		comm1 = RingCollective(e.c, e.ring1, e.b1/fS*bpe)
		comm2 = RingCollective(e.c, e.ring2, (e.m/fS)/e.pr*e.n/e.pc*bpe)
		hbm := (e.h1*(e.m/fS) + e.h3 + 2*(e.m/fS)*e.n/e.pc) * bpe
		compute = c.RooflineTime(2*(e.m/fS)*e.n/e.pc*e.k/e.pr, hbm)
		commFirst = comm1
		tailAfterCompute = comm2
	}
	return comm1, comm2, compute, commFirst, tailAfterCompute
}

// Estimate evaluates the prepared model at slice count S.
func (e *MeshSliceEval) Estimate(S int) Estimate {
	comm1, comm2, compute, commFirst, tailAfterCompute := e.terms(S)
	fS := float64(S)
	steady := maxf(maxf(comm1, comm2), compute)
	return Estimate{
		Prologue:    commFirst,
		SteadyState: steady,
		Iterations:  S - 1,
		Epilogue:    compute + tailAfterCompute,
		CommTime:    fS * (comm1 + comm2),
		ComputeTime: fS * compute,
	}
}

// Total returns Estimate(S).Total() without materialising the Estimate —
// the autotuner's argmin over slice counts only needs the scalar.
func (e *MeshSliceEval) Total(S int) float64 {
	comm1, comm2, compute, commFirst, tailAfterCompute := e.terms(S)
	steady := maxf(maxf(comm1, comm2), compute)
	return commFirst + float64(S-1)*steady + (compute + tailAfterCompute)
}
