package sched

import (
	"fmt"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// CannonProgram builds Cannon's schedule (paper §2.3.2): a skewing
// prologue followed by P systolic iterations whose SendRecv shifts overlap
// with the partial GeMMs. The mesh must be square.
//
// The skew moves shard (i,j) by i (respectively j) ring hops; with optimal
// torus routing the worst chip moves ⌊P/2⌋ hops, and since iterations
// cannot start before every chip is skewed, the prologue is modelled as
// ⌊P/2⌋ synchronised ring steps in each direction.
func CannonProgram(p gemm.Problem, t topology.Torus, c hw.Chip) *Program {
	if !t.IsSquare() {
		panic(fmt.Sprintf("sched: Cannon requires a square mesh, got %v", t)) // lint:invariant mesh-shape precondition
	}
	if p.Dataflow != gemm.OS {
		panic("sched: Cannon computes the OS dataflow only") // lint:invariant dataflow precondition
	}
	n := t.Rows
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	bpe := c.BytesPerElement
	aBytes := float64(aR*aC) * bpe
	bBytes := float64(bR*bC) * bpe
	b := &builder{}

	var skewDeps []int
	if n > 1 {
		skewDeps = append(skewDeps,
			b.add(Op{Kind: Shift, Name: "skew A", Dir: topology.InterCol,
				Bytes: aBytes, Steps: n / 2}),
			b.add(Op{Kind: Shift, Name: "skew B", Dir: topology.InterRow,
				Bytes: bBytes, Steps: n / 2}),
		)
	}
	flopsPerIter := 2 * float64(cR) * float64(cC) * float64(p.K) / float64(n)
	prevShifts := skewDeps
	for it := 0; it < n; it++ {
		b.add(Op{
			Kind: Compute, Name: fmt.Sprintf("partial GeMM t=%d", it),
			FLOPs: flopsPerIter,
			M:     cR, N: cC, K: p.K / n,
			HBMBytes: gemmHBM(float64(aR*aC), float64(bR*bC), float64(cR*cC), c),
			Deps:     prevShifts,
		})
		if it < n-1 && n > 1 {
			prevShifts = []int{
				b.add(Op{Kind: Shift, Name: fmt.Sprintf("shift A t=%d", it),
					Dir: topology.InterCol, Bytes: aBytes, Steps: 1, Deps: depsOfShift(prevShifts, 0)}),
				b.add(Op{Kind: Shift, Name: fmt.Sprintf("shift B t=%d", it),
					Dir: topology.InterRow, Bytes: bBytes, Steps: 1, Deps: depsOfShift(prevShifts, 1)}),
			}
		}
	}
	return &Program{Torus: t, Ops: b.ops, Label: "Cannon"}
}

// depsOfShift chains shift t to shift t-1 in the same direction (the link
// must deliver the previous block before forwarding the next), indexing
// into the previous iteration's shift pair.
func depsOfShift(prev []int, which int) []int {
	if len(prev) <= which {
		return nil
	}
	return []int{prev[which]}
}

// WangProgram builds Wang et al.'s schedule (paper §2.3.4) from the flow
// row the functional loop (gemm.Wang) runs: ONE collective is decomposed
// into SendRecv shifts overlapped with partial GeMMs, while the
// communication in the other direction stays monolithic and exposed —
// decomposing both directions would require Cannon. The decomposed
// collective is the flowing-input AllGather gemm.Flow.WangStream picks (for
// OS, the costlier of the two AllGathers; the other runs up front); for
// LS/RS the output ReduceScatter stays monolithic after the loop, since it
// needs every partial product. unroll merges shift steps into fewer, larger
// iterations (the loop unrolling of §4.2); pass 0 for the natural
// fully-decomposed loop.
func WangProgram(p gemm.Problem, t topology.Torus, c hw.Chip, unroll int) *Program {
	mats := matrices(p, t)
	circ := p.Dataflow.Flow().WangStream(t, mats[0].rows*mats[0].cols, mats[1].rows*mats[1].cols)
	stream, ring := mats[circ], mats[circ].ring
	bpe := c.BytesPerElement
	b := &builder{}

	var preDeps []int
	if x := mats[1-circ]; x.moves() {
		preDeps = append(preDeps, b.add(Op{
			Kind: AllGather, Name: x.comm("AG", "", 0),
			Dir: x.ax.Dir(), Bytes: x.elems() * bpe, Steps: x.ring - 1,
		}))
	}

	// The ring shards of the streamed operand are consumed in iters
	// groups; the shift delivering group g precedes GeMM g, and the shift
	// delivering group g+1 overlaps GeMM g (link and compute engine are
	// independent resources, and shifts depend only on earlier shifts).
	iters := unroll
	if iters <= 0 || iters > ring {
		iters = ring // one GeMM per arriving shard
	}
	out := mats[2]
	flopsTotal := 2 * float64(out.rows) * float64(out.cols) * float64(p.K)
	var prevShift []int
	var gemms []int
	consumed := 0
	for g := 0; g < iters; g++ {
		group := (g+1)*ring/iters - consumed // shards in this group
		consumed += group
		need := group
		if g == 0 {
			need-- // the local shard needs no shift
		}
		deps := append([]int{}, preDeps...)
		if need > 0 {
			shift := b.add(Op{
				Kind: Shift, Name: fmt.Sprintf("SendRecv g=%d", g),
				Dir: stream.ax.Dir(), Bytes: stream.elems() * bpe, Steps: need,
				Deps: append([]int{}, prevShift...),
			})
			prevShift = []int{shift}
			deps = append(deps, shift)
		}
		frac := float64(group) / float64(ring)
		m, n, k := p.PartialShape(t, group, ring)
		gemms = append(gemms, b.add(Op{
			Kind: Compute, Name: fmt.Sprintf("partial GeMM g=%d", g),
			FLOPs: flopsTotal * frac,
			M:     m, N: n, K: k,
			HBMBytes: gemmHBM(stream.elems()*float64(group),
				stream.elems()*float64(group), out.elems()*frac, c),
			Deps: deps,
		}))
	}
	if out.moves() {
		b.add(Op{
			Kind: ReduceScatter, Name: out.comm("RdS", "", 0),
			Dir: out.ax.Dir(), Bytes: out.loaded(float64(out.ring)) * bpe,
			Steps: out.ring - 1, Deps: gemms,
		})
	}
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("Wang-%v U=%d", p.Dataflow, iters)}
}

// OneDTPProgram builds the 1D tensor-parallel baseline (§4.3): a ring of P
// chips computing Y = X·W with the activation AllGather decomposed into
// SendRecv shifts overlapped with partial GeMMs (Wang's method applied to
// 1D, as the paper's baselines do). m, n, k are the global GeMM dimensions.
func OneDTPProgram(m, n, k int, chips int, c hw.Chip) *Program {
	return oneDProgram("1DTP", m, n, k, chips, float64(m/chips)*float64(k),
		m/chips, n/chips, k, c)
}

// FSDPProgram builds the FSDP baseline (§4.3): identical ring structure,
// but the flowing operand is the weight shard rather than the activations.
func FSDPProgram(m, n, k int, chips int, c hw.Chip) *Program {
	return oneDProgram("FSDP", m, n, k, chips, float64(k/chips)*float64(n),
		m/chips, n, k/chips, c)
}

func oneDProgram(label string, m, n, k, chips int, flowElems float64, gm, gn, gk int, c hw.Chip) *Program {
	if chips <= 0 {
		panic(fmt.Sprintf("sched: %s with %d chips", label, chips)) // lint:invariant chip-count precondition
	}
	t := topology.NewTorus(1, chips)
	bpe := c.BytesPerElement
	flopsPerShard := 2 * float64(m) * float64(n) * float64(k) / (float64(chips) * float64(chips))
	b := &builder{}
	var prevShift []int
	for it := 0; it < chips; it++ {
		deps := append([]int{}, prevShift...)
		if it < chips-1 {
			prevShift = []int{b.add(Op{
				Kind: Shift, Name: fmt.Sprintf("SendRecv it=%d", it),
				Dir: topology.InterCol, Bytes: flowElems * bpe, Steps: 1,
				Deps: append([]int{}, prevShift...),
			})}
		}
		b.add(Op{
			Kind: Compute, Name: fmt.Sprintf("partial GeMM it=%d", it),
			FLOPs: flopsPerShard,
			M:     gm, N: gn, K: gk,
			HBMBytes: gemmHBM(flowElems, flowElems, float64(m)*float64(n)/float64(chips), c),
			Deps:     deps,
		})
	}
	return &Program{Torus: t, Ops: b.ops, Label: label}
}
