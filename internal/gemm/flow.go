package gemm

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file holds the one description of the three dataflows that both
// interpreters read: the functional loops (MeshSlice, SUMMA, Wang) run it
// on real shards, and package sched turns the same rows into timing
// programs. A dataflow is which matrices move and along which ring (paper
// §3.1, Fig. 5); the local kernel is Dataflow.accumulate.

// Axis is how one matrix of a dataflow moves. A matrix moving AlongCols is
// sliced, gathered or reduce-scattered along its column dimension, which is
// split across mesh columns, so its traffic runs on the row ring (AG_col,
// RdS_col); AlongRows is the transpose, on the column ring. A Stationary
// matrix never moves.
type Axis uint8

const (
	Stationary Axis = iota
	AlongRows
	AlongCols
)

// Flow describes a dataflow as the movement of its inputs A, B and output
// C.
type Flow struct{ A, B, C Axis }

var flows = [...]Flow{
	OS: {A: AlongCols, B: AlongRows}, // C += AG_col(A)·AG_row(B)
	LS: {B: AlongRows, C: AlongCols}, // C = RdS_col(A·AG_row(B)ᵀ)
	RS: {A: AlongCols, C: AlongRows}, // C = RdS_row(AG_col(A)ᵀ·B)
}

// Flow returns the dataflow's row of the flow table.
func (d Dataflow) Flow() Flow {
	if d < OS || d > RS {
		panic(fmt.Sprintf("gemm: unknown dataflow %d", int(d))) // lint:invariant exhaustive dataflow guard
	}
	return flows[d]
}

// WangStream returns which input Wang's algorithm decomposes into shifts,
// 0 for A and 1 for B, given the per-chip shard sizes: the moving input
// whose AllGather costs more, (ring−1)·|X_ij| elements, with A on a tie.
// Only OS moves both inputs; the other one is all-gathered up front.
func (f Flow) WangStream(t topology.Torus, aElems, bElems int) int {
	cost := func(ax Axis, elems int) int {
		if ax == Stationary {
			return -1
		}
		return (ax.Ring(t) - 1) * elems
	}
	if cost(f.B, bElems) > cost(f.A, aElems) {
		return 1
	}
	return 0
}

// Dir returns the mesh direction whose links a matrix moving along ax
// crosses.
func (ax Axis) Dir() topology.Direction {
	if ax == AlongRows {
		return topology.InterRow
	}
	return topology.InterCol
}

// Ring returns how many chips share the ring ax moves on in t; a
// stationary matrix has a ring of one.
func (ax Axis) Ring(t topology.Torus) int {
	switch ax {
	case AlongRows:
		return t.Rows
	case AlongCols:
		return t.Cols
	}
	return 1
}

// Sub returns the paper's subscript for collectives moving along ax
// ("row" in AG_row, "col" in RdS_col).
func (ax Axis) Sub() string {
	if ax == AlongRows {
		return "row"
	}
	return "col"
}

// comm returns the ring a matrix moving along ax travels on.
func (ax Axis) comm(c *mesh.Chip) *mesh.Comm { return c.CommFor(ax.Dir()) }

// scale returns rows×cols with the dimension along ax multiplied by
// num/den; a stationary matrix keeps its shape.
func (ax Axis) scale(rows, cols, num, den int) (int, int) {
	switch ax {
	case AlongRows:
		return rows * num / den, cols
	case AlongCols:
		return rows, cols * num / den
	}
	return rows, cols
}

// PartialShape returns the local GeMM dimensions (an m×n product with
// inner dimension k) of one step that covers num/den of the dimension the
// moving matrices share: each moving input's shard grows by its ring size
// (the gather) and is cut to num/den. MeshSlice's slice s and SUMMA's
// panel p cover 1/S and 1/P; Wang's step over g of a ring's p shards
// covers g/p.
func (p Problem) PartialShape(t topology.Torus, num, den int) (m, n, k int) {
	f := p.Dataflow.Flow()
	aR, aC, bR, bC := p.OperandShapes()
	aR, aC = f.A.scale(aR/t.Rows, aC/t.Cols, f.A.Ring(t)*num, den)
	bR, bC = f.B.scale(bR/t.Rows, bC/t.Cols, f.B.Ring(t)*num, den)
	return p.Dataflow.dims(aR, aC, bR, bC)
}

// slice returns sub-shard s of x along ax (paper Algorithm 2); with one
// slice that is x itself.
func (ax Axis) slice(x *tensor.Matrix, S, s, B int) *tensor.Matrix {
	switch {
	case S == 1:
		return x
	case ax == AlongRows:
		return tensor.SliceRow(x, S, s, B)
	default:
		return tensor.SliceCol(x, S, s, B)
	}
}

// unslice writes sub-shard s back into its positions in x along ax.
func (ax Axis) unslice(x, sub *tensor.Matrix, S, s, B int) {
	if ax == AlongRows {
		tensor.UnsliceRowInto(x, sub, S, s, B)
	} else {
		tensor.UnsliceColInto(x, sub, S, s, B)
	}
}

// panel returns panel i of x's p equal panels along ax.
func (ax Axis) panel(x *tensor.Matrix, i, p int) *tensor.Matrix {
	r, c := ax.scale(x.Rows, x.Cols, 1, p)
	if ax == AlongRows {
		return x.SubMatrix(i*r, 0, r, c)
	}
	return x.SubMatrix(0, i*c, r, c)
}

// setPanel writes blk into x as panel i along ax.
func (ax Axis) setPanel(x, blk *tensor.Matrix, i int) {
	if ax == AlongRows {
		x.SetSubMatrix(i*blk.Rows, 0, blk)
	} else {
		x.SetSubMatrix(0, i*blk.Cols, blk)
	}
}
