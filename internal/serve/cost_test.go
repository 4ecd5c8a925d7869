package serve

import (
	"math"
	"testing"

	"meshslice/internal/costmodel"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// TestFCGeMMMatchesCostModel keeps serve's copy of the MeshSlice formula
// on costmodel's: on a healthy fabric, fcGeMM is the cheapest dataflow's
// costmodel.MeshSlice total, for decode-sized and prefill-sized token
// counts, at one slice and at the policy's slice count.
func TestFCGeMMMatchesCostModel(t *testing.T) {
	chip := hw.TPUv4()
	cfg := model.Llama3_70B()
	shapes := []topology.Torus{
		topology.NewTorus(1, 4), topology.NewTorus(2, 2), topology.NewTorus(4, 4),
		topology.NewTorus(2, 8), topology.NewTorus(8, 2), topology.NewTorus(8, 8),
	}
	for _, shape := range shapes {
		fab := newFabric(chip, shape.Size(), nil)
		for _, S := range []int{1, 2, 8} {
			cm := newCostModel(cfg, fab, shape, S)
			for _, tokens := range []int{1, 7, 64, 512, 2048, 8192} {
				for _, fc := range cfg.FCLayers() {
					got := cm.fcGeMM(float64(tokens), float64(fc.InDim), float64(fc.OutDim), cm.slice)
					want := math.Inf(1)
					for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
						p := gemm.Problem{M: tokens, N: fc.OutDim, K: fc.InDim, Dataflow: df}
						want = math.Min(want, costmodel.MeshSlice(p, shape, chip, S).Total())
					}
					if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
						t.Errorf("%v S=%d tokens=%d %s: fcGeMM %v, costmodel %v (rel %.3g)",
							shape, S, tokens, fc.Name, got, want, rel)
					}
				}
			}
		}
	}
}
