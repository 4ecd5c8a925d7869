package costmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// pinnedEstimates holds, per mesh and problem, an FNV-64a digest of the
// float64 bits of every field of MeshSlice's Estimate at S = 1..96. The
// table was recorded while MeshSlice still wrote its formula out a second
// time next to MeshSliceEval's; MeshSlice is now that evaluator, and the
// table keeps it on the same numbers. Key: "RxC/M,N,K/DF".
var pinnedEstimates = map[string]uint64{
	"1x4/32768,12288,12288/OS":  0x086e3db314d77961,
	"1x4/32768,12288,12288/LS":  0xd8232f314830eea2,
	"1x4/32768,12288,12288/RS":  0xb042e15139ff05b4,
	"1x4/4096,6720,13440/OS":    0x60c03c796caef325,
	"1x4/4096,6720,13440/LS":    0xfcc2329ea99e4e2c,
	"1x4/4096,6720,13440/RS":    0xa43d86b1b1b8eff6,
	"2x2/32768,12288,12288/OS":  0xa0dc7606475509f9,
	"2x2/32768,12288,12288/LS":  0x2b552023a79dd5a1,
	"2x2/32768,12288,12288/RS":  0x3650fd59e3f09252,
	"2x2/4096,6720,13440/OS":    0x535e57a62079a810,
	"2x2/4096,6720,13440/LS":    0x288e291e599abf74,
	"2x2/4096,6720,13440/RS":    0x714772eb134851d7,
	"4x8/32768,12288,12288/OS":  0x1ab99990c64101b9,
	"4x8/32768,12288,12288/LS":  0xf1a45e43f8c19197,
	"4x8/32768,12288,12288/RS":  0xc96c8f9b53c17b42,
	"4x8/4096,6720,13440/OS":    0x2b2092c91f679159,
	"4x8/4096,6720,13440/LS":    0xdeebfb14566ed31a,
	"4x8/4096,6720,13440/RS":    0xd098ce22e05c5d14,
	"8x8/32768,12288,12288/OS":  0x302d38d60868f811,
	"8x8/32768,12288,12288/LS":  0x744ef796989248dc,
	"8x8/32768,12288,12288/RS":  0x63a470b80c7754b4,
	"8x8/4096,6720,13440/OS":    0x5563d07ff28bd1b7,
	"8x8/4096,6720,13440/LS":    0xb9e39c67f5719b6e,
	"8x8/4096,6720,13440/RS":    0xec7abc902e7e4817,
	"16x4/32768,12288,12288/OS": 0x775c0ff323d0894d,
	"16x4/32768,12288,12288/LS": 0xe4f14f86c0855e08,
	"16x4/32768,12288,12288/RS": 0x922c7eb7ff360b82,
	"16x4/4096,6720,13440/OS":   0xfb6daad313a7ffea,
	"16x4/4096,6720,13440/LS":   0xb8e11bbfb20f6759,
	"16x4/4096,6720,13440/RS":   0x106332b7ab50b9a4,
}

// TestMeshSliceEvalBitIdentical pins the cost model bit for bit: for every
// dataflow, shape, and slice count, MeshSlice reproduces the recorded
// Estimates, and the evaluator's scalar Total equals the Estimate's.
func TestMeshSliceEvalBitIdentical(t *testing.T) {
	chip := hw.TPUv4()
	shapes := []topology.Torus{
		topology.NewTorus(1, 4), topology.NewTorus(2, 2), topology.NewTorus(4, 8),
		topology.NewTorus(8, 8), topology.NewTorus(16, 4),
	}
	probs := []gemm.Problem{
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.OS},
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.LS},
		{M: 1 << 15, N: 12288, K: 12288, Dataflow: gemm.RS},
		{M: 4096, N: 6720, K: 13440, Dataflow: gemm.OS},
		{M: 4096, N: 6720, K: 13440, Dataflow: gemm.LS},
		{M: 4096, N: 6720, K: 13440, Dataflow: gemm.RS},
	}
	for _, shape := range shapes {
		for _, p := range probs {
			key := fmt.Sprintf("%dx%d/%d,%d,%d/%v", shape.Rows, shape.Cols, p.M, p.N, p.K, p.Dataflow)
			eval := NewMeshSliceEval(p, shape, chip)
			h := fnv.New64a()
			for s := 1; s <= 96; s++ {
				e := MeshSlice(p, shape, chip, s)
				for _, v := range []float64{e.Prologue, e.SteadyState, float64(e.Iterations), e.Epilogue, e.CommTime, e.ComputeTime} {
					var b [8]byte
					for i, u := 0, math.Float64bits(v); i < 8; i++ {
						b[i] = byte(u >> (8 * i))
					}
					h.Write(b[:])
				}
				if got := eval.Total(s); got != e.Total() {
					t.Fatalf("%s S=%d: eval.Total %v != Estimate.Total %v", key, s, got, e.Total())
				}
			}
			if got, want := h.Sum64(), pinnedEstimates[key]; got != want {
				t.Errorf("%q: %#016x, want %#016x", key, got, want)
			}
		}
	}
}
