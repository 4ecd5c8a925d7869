package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Wang returns the ChipFunc for Wang et al.'s algorithm (paper §2.3.4,
// [34]) in any dataflow: the AllGather of ONE flowing input is decomposed
// into SendRecv shifts, one partial GeMM per arriving shard, which on real
// hardware overlap with the GeMMs. Flow.WangStream picks that input: the
// only flowing one under LS and RS, the costlier AllGather under OS, where
// the other input is all-gathered up front in one monolithic collective. A
// flowing output (LS/RS) is reduce-scattered once at the end. The timing
// program sched.WangProgram reads the same rule. Decomposing both
// directions would require Cannon (and its square-mesh limitation), which
// is exactly the gap MeshSlice closes.
//
// pipelined selects lookahead 1 (see schedule): the shift of shard t+1 is
// issued on the comm lane before the partial GeMM on shard t and waited
// after it. At lookahead 0 the shift runs synchronously.
func Wang(df Dataflow, pipelined bool) ChipFunc {
	f := df.Flow()
	sc := scheduleOf(pipelined)
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		return wang(c, df, f, sc, aij, bij)
	}
}

// wang runs Wang's loop on one chip. The input WangStream picks circulates
// around its ring: at step t the chip holds the shard that started at ring
// position src = Pos+t, multiplies it with the matching panel of the other
// input, and adds the product into C (stationary output) or writes it as
// panel src of the partial output.
func wang(c *mesh.Chip, df Dataflow, f Flow, sc schedule, aij, bij *tensor.Matrix) *tensor.Matrix {
	moves := [2]Axis{f.A, f.B}
	circ := f.WangStream(torusOf(c), aij.Rows*aij.Cols, bij.Rows*bij.Cols)
	other := 1 - circ
	ring := moves[circ].comm(c)
	p := ring.Size

	// x holds the kernel operands: x[circ] is the circulating shard,
	// x[other] is taken from panels, indexed by the shard's ring position.
	x := [2]*tensor.Matrix{aij, bij}
	panels := make([]*tensor.Matrix, p)
	for i := range panels {
		panels[i] = x[other]
	}
	if ax := moves[other]; ax != Stationary {
		// Monolithic in both schedules: one synchronous AllGather.
		cm := ax.comm(c)
		full := tensor.New(ax.scale(x[other].Rows, x[other].Cols, cm.Size, 1))
		schedule{}.gather(ax, cm, x[other], full)
		for i := range panels {
			panels[i] = ax.panel(full, i, p)
		}
	}
	x[other] = panels[0]

	// acc receives each step's product: C itself when the output is
	// stationary, else the block written into panel src of partial.
	acc := tensor.New(df.productShape(x[0], x[1]))
	var partial *tensor.Matrix
	if f.C != Stationary {
		partial = tensor.New(f.C.scale(acc.Rows, acc.Cols, p, 1))
	}
	var bufs [2]*tensor.Matrix
	for i := 0; sc.ahead > 0 && i < len(bufs); i++ {
		bufs[i] = tensor.New(x[circ].Rows, x[circ].Cols)
	}
	for t := 0; t < p; t++ {
		sc.stepStart(c, t)
		var next *tensor.Matrix
		var h *collective.Handle
		if t+1 < p {
			next, h = shift(sc, ring, x[circ], bufs[t%2])
		}
		src := (ring.Pos + t) % p
		x[other] = panels[src]
		sc.computeStart(c, t)
		if partial != nil {
			acc.Zero()
		}
		df.accumulate(acc, x[0], x[1])
		if partial != nil {
			f.C.setPanel(partial, acc, src)
		}
		sc.computeEnd(c)
		sc.stepEnd(c)
		wait(h)
		x[circ] = next
	}
	if partial == nil {
		return acc
	}
	// The output's ReduceScatter is monolithic and synchronous too.
	out := f.C.comm(c)
	cij := tensor.New(f.C.scale(partial.Rows, partial.Cols, 1, out.Size))
	schedule{}.reduceScatter(f.C, out, partial, cij)
	return cij
}

// shift moves cur one hop downstream on the ring and returns the matrix
// that receives the upstream neighbour's shard. Under lookahead that is buf,
// filled on the comm lane once the returned handle is waited (the send
// clones cur, so the chip keeps computing on it meanwhile); otherwise the
// shard arrives synchronously in a fresh matrix.
func shift(sc schedule, ring *mesh.Comm, cur, buf *tensor.Matrix) (*tensor.Matrix, *collective.Handle) {
	if sc.ahead > 0 {
		return buf, collective.StartShiftInto(ring, -1, cur, buf)
	}
	return ring.Shift(-1, cur), nil
}

// WangValidate reports whether Wang's algorithm can run the problem on the
// torus: the shared dimension must split over both mesh dimensions.
func WangValidate(p Problem, t topology.Torus) error {
	if p.Dataflow < OS || p.Dataflow > RS {
		return fmt.Errorf("gemm: unknown dataflow %d", int(p.Dataflow))
	}
	if d := p.sharedDim(); !divisible(d, t.Cols) || !divisible(d, t.Rows) {
		return fmt.Errorf("gemm: Wang %v needs its shared dimension %d divisible by both mesh dims of %v", p.Dataflow, d, t)
	}
	return nil
}
