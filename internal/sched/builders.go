package sched

import (
	"fmt"
	"strconv"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/topology"
)

// shardDims returns the per-chip shard dimensions of the three matrices for
// a problem on a torus, as (aR, aC, bR, bC, cR, cC).
func shardDims(p gemm.Problem, t topology.Torus) (aR, aC, bR, bC, cR, cC int) {
	gaR, gaC, gbR, gbC := p.OperandShapes()
	return gaR / t.Rows, gaC / t.Cols, gbR / t.Rows, gbC / t.Cols, p.M / t.Rows, p.N / t.Cols
}

// gemmHBM estimates the HBM traffic of a local GeMM: read both operands,
// read-modify-write the output.
func gemmHBM(aElems, bElems, cElems float64, c hw.Chip) float64 {
	return (aElems + bElems + 2*cElems) * c.BytesPerElement
}

// matrix is one of a GeMM's three matrices as a program sees it: its name,
// how the dataflow moves it (its gemm.Flow entry), the ring it moves on and
// its per-chip shard.
type matrix struct {
	name       string
	ax         gemm.Axis
	ring       int
	rows, cols int
}

// matrices returns A, B and C of the problem on the torus.
func matrices(p gemm.Problem, t topology.Torus) [3]matrix {
	f := p.Dataflow.Flow()
	aR, aC, bR, bC, cR, cC := shardDims(p, t)
	return [3]matrix{
		{"A", f.A, f.A.Ring(t), aR, aC},
		{"B", f.B, f.B.Ring(t), bR, bC},
		{"C", f.C, f.C.Ring(t), cR, cC},
	}
}

// moves reports whether x crosses links: it flows on a ring of more than
// one chip.
func (x matrix) moves() bool { return x.ring > 1 }

func (x matrix) elems() float64 { return float64(x.rows * x.cols) }

// loaded returns the elements of x that one of parts steps works on: a
// flowing matrix's gathered extent cut into parts, a stationary shard whole.
func (x matrix) loaded(parts float64) float64 {
	switch x.ax {
	case gemm.AlongRows:
		return float64(x.rows*x.ring) / parts * float64(x.cols)
	case gemm.AlongCols:
		return float64(x.rows) * float64(x.cols*x.ring) / parts
	}
	return x.elems()
}

// comm names a collective on x in the paper's notation, "AG_col A", with
// the loop step appended when step is not empty ("AG_col A s=2"). It
// concatenates instead of formatting, so a name costs one allocation.
func (x matrix) comm(op, step string, i int) string {
	if step == "" {
		return op + "_" + x.ax.Sub() + " " + x.name
	}
	return op + "_" + x.ax.Sub() + " " + x.name + " " + step + "=" + strconv.Itoa(i)
}

// partialGeMM is the compute op of one of parts steps: the chip's share of
// the full GeMM over parts, on the operands each matrix loads.
func partialGeMM(p gemm.Problem, t topology.Torus, c hw.Chip, mats [3]matrix, parts int, name string, deps []int) Op {
	m, n, k := p.PartialShape(t, 1, parts)
	fP := float64(parts)
	return Op{
		Kind: Compute, Name: name,
		FLOPs: 2 * float64(mats[2].rows) * float64(mats[2].cols) * float64(p.K) / fP,
		M:     m, N: n, K: k,
		HBMBytes: gemmHBM(mats[0].loaded(fP), mats[1].loaded(fP), mats[2].loaded(fP), c),
		Deps:     deps,
	}
}

// MeshSliceProgram builds the SPMD program of the MeshSlice algorithm
// (paper Fig. 5) for the given problem, mesh, and slice count S. It reads
// the dataflow's gemm.Flow row, which the functional loop (gemm.MeshSlice)
// runs too: per slice, each flowing input is sliced and all-gathered on its
// ring, the partial GeMM waits for the gathers, and a flowing output is
// reduce-scattered and unsliced. With S=1 it is the Collective 2D GeMM
// schedule, which CollectiveProgram labels as such.
func MeshSliceProgram(p gemm.Problem, t topology.Torus, c hw.Chip, S int) *Program {
	if S <= 0 {
		panic(fmt.Sprintf("sched: MeshSlice S=%d", S)) // lint:invariant slice-count precondition
	}
	mats := matrices(p, t)
	bpe := c.BytesPerElement
	fS := float64(S)
	b := &builder{}
	for s := 0; s < S; s++ {
		var deps []int
		for _, x := range mats[:2] {
			if x.moves() {
				sub := x.elems() / fS
				deps = append(deps, b.add(Op{
					Kind: AllGather, Name: x.comm("AG", "s", s),
					Dir: x.ax.Dir(), Bytes: sub * bpe, Steps: x.ring - 1,
					Deps: sliceDep(b, S, s, sub, bpe, x.name),
				}))
			}
		}
		g := b.add(partialGeMM(p, t, c, mats, S, fmt.Sprintf("partial GeMM s=%d", s), deps))
		if x := mats[2]; x.moves() {
			sub := x.elems() / fS
			rds := b.add(Op{
				Kind: ReduceScatter, Name: x.comm("RdS", "s", s),
				Dir: x.ax.Dir(), Bytes: sub * bpe, Steps: x.ring - 1, Deps: []int{g},
			})
			if S > 1 {
				b.add(Op{
					Kind: Slice, Name: fmt.Sprintf("unslice C s=%d", s),
					HBMBytes: 2 * sub * bpe, Deps: []int{rds},
				})
			}
		}
	}
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("MeshSlice-%v S=%d", p.Dataflow, S)}
}

// sliceDep emits the slicing op for matrix name's sub-shard when S>1 and
// returns the dependency list for the consumer (empty when no slicing is
// needed).
func sliceDep(b *builder, S, s int, subElems, bpe float64, name string) []int {
	if S <= 1 {
		return nil
	}
	return []int{b.add(Op{
		Kind: Slice, Name: "slice " + name + "_s s=" + strconv.Itoa(s),
		HBMBytes: 2 * subElems * bpe,
	})}
}

// CollectiveProgram builds the Collective 2D GeMM schedule (paper Fig. 2b):
// monolithic collectives with hard dependencies to and from a single local
// GeMM — the structure that prevents any overlap.
func CollectiveProgram(p gemm.Problem, t topology.Torus, c hw.Chip) *Program {
	prog := MeshSliceProgram(p, t, c, 1)
	prog.Label = fmt.Sprintf("Collective-%v", p.Dataflow)
	return prog
}

// SUMMAProgram builds SUMMA's schedule (paper Fig. 2a) from the same flow
// row: iters loop iterations, each broadcasting every flowing input's panel
// with fine-grain pipelined bcast operations and, for a flowing output,
// reducing the partial product's panel. iters defaults to
// gemm.DefaultSUMMAIterations when zero; the paper's evaluation unrolls
// SUMMA to MeshSlice's slice count (§4.2), which corresponds to passing
// that count here.
func SUMMAProgram(p gemm.Problem, t topology.Torus, c hw.Chip, iters int) *Program {
	if iters <= 0 {
		iters = gemm.DefaultSUMMAIterations(t)
	}
	mats := matrices(p, t)
	bpe := c.BytesPerElement
	d := c.BcastPackets
	fI := float64(iters)
	b := &builder{}
	pipelined := func(kind OpKind, op string, x matrix, it int, deps []int) int {
		return b.add(Op{
			Kind: kind, Name: x.comm(op, "p", it), Dir: x.ax.Dir(),
			Bytes: x.loaded(fI) * bpe, Steps: x.ring + d - 2, Packets: d, Deps: deps,
		})
	}
	for it := 0; it < iters; it++ {
		var deps []int
		for _, x := range mats[:2] {
			if x.moves() {
				deps = append(deps, pipelined(Broadcast, "bcast", x, it, nil))
			}
		}
		g := b.add(partialGeMM(p, t, c, mats, iters, fmt.Sprintf("partial GeMM p=%d", it), deps))
		if x := mats[2]; x.moves() {
			pipelined(Reduce, "reduce", x, it, []int{g})
		}
	}
	return &Program{Torus: t, Ops: b.ops, Label: fmt.Sprintf("SUMMA-%v P=%d", p.Dataflow, iters)}
}
