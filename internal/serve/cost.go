package serve

import (
	"meshslice/internal/costmodel"
	"meshslice/internal/fault"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/topology"
)

// fabric is the serving scheduler's analytical view of the (possibly
// degraded) 2D mesh. Unlike fault.Plan.EffectiveChip, which folds every
// degradation into one global worst-case factor, the fabric keeps the two
// ring directions separate: a column-degrade plan slows only the
// collectives whose rings cross InterCol links, which is what lets the
// serving autotuner prefer a taller-than-wide mesh on a fabric whose
// horizontal links are sick.
type fabric struct {
	// rowChip / colChip carry the link calibration for ring collectives
	// crossing InterRow (vertical) and InterCol (horizontal) links,
	// bandwidth divided by that direction's worst degradation.
	rowChip hw.Chip
	colChip hw.Chip
	// cmpChip carries the compute calibration, effective FLOPS divided by
	// the worst straggler slowdown.
	cmpChip hw.Chip
	// survivors is the chip count still alive under the plan's chip
	// failures; a mesh needing more chips than survive is infeasible.
	survivors int
}

// directionFactor returns the worst steady-state wire-time stretch the plan
// imposes on links of one direction: the largest degradation factor among
// that direction's degrades, and at least 2 if any link of the direction is
// failed outright (rings detour the long way around, doubling wire time —
// the same first-order figure netsim's re-routing converges to).
func directionFactor(p *fault.Plan, dir topology.Direction) float64 {
	f := 1.0
	if p == nil {
		return f
	}
	for _, d := range p.Degrades {
		if d.Link.Dir == dir && d.Factor > f {
			f = d.Factor
		}
	}
	for _, lf := range p.LinkFails {
		if lf.Link.Dir == dir && f < 2 {
			f = 2
		}
	}
	return f
}

// newFabric builds the direction-aware degraded view of chip c on a cluster
// of the given size under plan p (nil or empty plan: healthy fabric).
func newFabric(c hw.Chip, clusterChips int, p *fault.Plan) fabric {
	f := fabric{rowChip: c, colChip: c, cmpChip: c, survivors: clusterChips}
	f.rowChip.LinkBandwidth /= directionFactor(p, topology.InterRow)
	f.colChip.LinkBandwidth /= directionFactor(p, topology.InterCol)
	f.cmpChip.EffFLOPS /= p.WorstComputeFactor()
	if p != nil {
		failed := map[int]bool{}
		for _, cf := range p.ChipFails {
			if cf.Chip >= 0 && cf.Chip < clusterChips {
				failed[cf.Chip] = true
			}
		}
		f.survivors = clusterChips - len(failed)
	}
	return f
}

// costModel prices one scheduler step on a fixed mesh shape and slice
// count. All model dimensions are pre-flattened into plain float64 fields
// so the per-step pricing functions below stay allocation-free — they run
// once per simulated step inside the scheduler loop, the subsystem's hot
// path.
type costModel struct {
	fab    fabric
	rows   float64
	cols   float64
	slice  float64 // MeshSlice slice count S
	slices int
	bpe    float64
	layers float64
	hidden float64
	// fc holds the {InDim, OutDim} of the four FC layers of one block
	// (QKV, AttnOut, FF1, FF2), hoisted out of model.Config.FCLayers()
	// which allocates.
	fc [4][2]float64
	// kvPerTokLayer is the KV-cache bytes one token adds per layer
	// (2 × heads × headDim × bpe = 2 × hidden × bpe).
	kvPerTokLayer float64
	meshSize      float64
}

func newCostModel(cfg model.Config, fab fabric, t topology.Torus, sliceCount int) costModel {
	cm := costModel{
		fab:      fab,
		rows:     float64(t.Rows),
		cols:     float64(t.Cols),
		slice:    float64(sliceCount),
		slices:   sliceCount,
		bpe:      fab.cmpChip.BytesPerElement,
		layers:   float64(cfg.Layers),
		hidden:   float64(cfg.Hidden),
		meshSize: float64(t.Size()),
	}
	for i, fc := range cfg.FCLayers() {
		cm.fc[i] = [2]float64{float64(fc.InDim), float64(fc.OutDim)}
	}
	cm.kvPerTokLayer = cfg.KVCacheBytesPerToken(cm.bpe) / cm.layers
	return cm
}

// compose prices one MeshSlice GeMM from its per-iteration costs the way
// costmodel.MeshSlice does: prologue, S−1 overlapped steady-state
// iterations, epilogue. overlapPrologue selects the OS shape (both gathers
// head the pipeline, compute tails it); the LS/RS shapes instead pay comm1
// up front and comm2 after the last compute.
//
// lint:hotpath called for each (dataflow, slice count) candidate per FC layer per step
func (cm *costModel) compose(comm1, comm2, compute, fS float64, overlapPrologue bool) float64 {
	steady := compute
	if comm1 > steady {
		steady = comm1
	}
	if comm2 > steady {
		steady = comm2
	}
	if overlapPrologue {
		head := comm1
		if comm2 > head {
			head = comm2
		}
		return head + (fS-1)*steady + compute
	}
	return comm1 + (fS-1)*steady + compute + comm2
}

// fcGeMM prices one m×n×k FC GeMM with slice count fS: each of the three
// dataflows — OS, LS, RS — is composed exactly like costmodel.MeshSlice,
// and the cheapest wins, mirroring the autotuner's per-GeMM dataflow
// choice. The fabric supplies per-direction link calibrations —
// ring-of-Cols collectives ride InterCol links, ring-of-Rows collectives
// InterRow links — and compute uses the roofline.
//
// This restates costmodel's formula rather than calling it, on purpose:
// costmodel prices one chip calibration for both directions, and pricing
// through costmodel.MeshSliceEval rebuilds an evaluator for every dataflow
// of every FC layer of every scheduler step, which made fcStack about 3.5x
// slower (Llama-3-70B on 8x8, 2-vCPU x86 host). Estimate.Total also groups
// compute+tail, which would move report floats by one ULP.
// TestFCGeMMMatchesCostModel holds the two to 1e-12 on healthy fabrics.
//
// lint:hotpath priced per FC layer per scheduler step; must not allocate
func (cm *costModel) fcGeMM(m, k, n, fS float64) float64 {
	pr, pc := cm.rows, cm.cols
	ringRow, ringCol := int(pr), int(pc)

	// OS: C stationary; A slices gather over columns, B slices over rows.
	c1 := costmodel.RingCollective(cm.fab.colChip, ringCol, m/pr*k/pc/fS*cm.bpe)
	c2 := costmodel.RingCollective(cm.fab.rowChip, ringRow, k/pr*n/pc/fS*cm.bpe)
	hbm := (m/pr*k/fS + k/fS*n/pc + 2*m/pr*n/pc) * cm.bpe
	comp := cm.fab.cmpChip.RooflineTime(2*m/pr*n/pc*k/fS, hbm)
	best := cm.compose(c1, c2, comp, fS, true)

	// LS: A stationary; B slices gather over rows, C slices reduce over
	// columns.
	c1 = costmodel.RingCollective(cm.fab.rowChip, ringRow, n/pr*k/pc/fS*cm.bpe)
	c2 = costmodel.RingCollective(cm.fab.colChip, ringCol, m/pr*(n/fS)/pc*cm.bpe)
	hbm = (m/pr*k/pc + (n/fS)*k/pc + 2*m/pr*(n/fS)) * cm.bpe
	comp = cm.fab.cmpChip.RooflineTime(2*m/pr*(n/fS)*k/pc, hbm)
	if t := cm.compose(c1, c2, comp, fS, false); t < best {
		best = t
	}

	// RS: B (the weight) stationary; A slices gather over columns, C
	// slices reduce over rows.
	c1 = costmodel.RingCollective(cm.fab.colChip, ringCol, k/pr*m/pc/fS*cm.bpe)
	c2 = costmodel.RingCollective(cm.fab.rowChip, ringRow, (m/fS)/pr*n/pc*cm.bpe)
	hbm = (k/pr*(m/fS) + k/pr*n/pc + 2*(m/fS)*n/pc) * cm.bpe
	comp = cm.fab.cmpChip.RooflineTime(2*(m/fS)*n/pc*k/pr, hbm)
	if t := cm.compose(c1, c2, comp, fS, false); t < best {
		best = t
	}
	return best
}

// fcStack prices the four FC GeMMs of every transformer layer for one step
// carrying the given batched token count. Each GeMM takes the cheapest of
// the three dataflows at both the policy's slice count and S=1, mirroring
// the autotuner's per-GeMM (dataflow, S) choice: decode steps (tiny m)
// pick weight-stationary RS at S=1 — slicing would stream the weight S
// times, and OS/LS would re-gather it every step — exactly the layout real
// inference TP uses, and the roofline then pins the step to weight
// streaming, the paper's §6 memory-bound regime. Large prefill chunks are
// compute-bound and benefit from the policy's sliced overlap.
//
// lint:hotpath priced once per scheduler step; must not allocate
func (cm *costModel) fcStack(tokens float64) float64 {
	if tokens <= 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < len(cm.fc); i++ {
		k, n := cm.fc[i][0], cm.fc[i][1]
		best := cm.fcGeMM(tokens, k, n, 1)
		if cm.slices > 1 {
			if t := cm.fcGeMM(tokens, k, n, cm.slice); t < best {
				best = t
			}
		}
		total += best
	}
	return cm.layers * total
}

// attn prices the attention score and context operations for newTokens
// query tokens attending over ctxTokens cached tokens, across all layers,
// sharded over the whole mesh (heads split TP-style). The HBM term streams
// the request's sharded KV cache — for decode (newTokens = 1) that term
// dominates and the step is memory-bound, the paper's §6 regime.
//
// lint:hotpath priced once per in-flight request per scheduler step
func (cm *costModel) attn(newTokens, ctxTokens float64) float64 {
	if newTokens <= 0 || ctxTokens <= 0 {
		return 0
	}
	flops := 4 * newTokens * ctxTokens * cm.hidden * cm.layers / cm.meshSize
	kvRead := ctxTokens * cm.kvPerTokLayer * cm.layers / cm.meshSize
	kvWrite := newTokens * cm.kvPerTokLayer * cm.layers / cm.meshSize
	return cm.fab.cmpChip.RooflineTime(flops, kvRead+kvWrite)
}
