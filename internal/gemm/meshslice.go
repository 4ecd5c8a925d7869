package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements the MeshSlice 2D GeMM algorithm (paper §3.1,
// Fig. 5): the collective AG/RdS operations are partitioned into S partial
// collectives over sliced sub-shards, so that the communication of one
// slice overlaps the computation of another.
//
// One loop runs every dataflow. A dataflow is data (Flow, flow.go): which
// inputs are sliced and all-gathered each step, and whether the partial
// product is reduce-scattered and unsliced into the output. Collective 2D
// GeMM is the same loop with S=1, and the serial and double-buffered
// schedules are its lookahead 0 and lookahead 1 (schedule).
//
// Following the paper's subscript convention (Fig. 2 caption): AG_col and
// RdS_col are inter-column communications within the same mesh row (the
// RowComm ring); AG_row and RdS_row are inter-row communications within
// the same mesh column (the ColComm ring).

// MeshSliceConfig parameterises the MeshSlice algorithm.
type MeshSliceConfig struct {
	// S is the slice count: how many partial collectives each collective
	// is partitioned into. S=1 is Collective 2D GeMM.
	S int
	// Block is the architecture block size B of the blocked slicing
	// algorithm (paper Algorithm 2); 8 on TPUs. Use 1 for the strided
	// slicing of the mathematical description (§3.1.1).
	Block int
	// Pipelined selects lookahead 1, the double-buffered schedule: the
	// partial collectives run on background comm lanes underneath the
	// MatMuls. Results are bit-identical to the serial schedule
	// (lookahead 0).
	Pipelined bool
}

// schedule is how far a loop's collectives run ahead of its MatMuls.
//
// Lookahead 0 is the serial schedule: every collective runs synchronously on
// the chip goroutine through its *Into form, in step order, and one
// OpGemmStep span brackets each whole step; the recorder sees no async ops.
//
// Lookahead 1 is the double-buffered schedule: step s+1's inputs move on
// the background comm lanes (Start*Into) underneath step s's MatMul, and
// step s's reduce-scatter drains underneath step s+1's. OpCompute spans
// bracket each MatMul, so the recorder can attribute overlap: an async op
// whose issue→wait window contains a compute span start ran underneath
// compute.
//
// Both run bit-identical numerics: every MatMul runs on the chip goroutine
// in ascending step order into the same accumulator, and the async
// collectives execute the exact ring loops of the synchronous forms. Only
// when the messages move differs, never what they carry.
type schedule struct{ ahead int }

func scheduleOf(pipelined bool) schedule {
	if pipelined {
		return schedule{ahead: 1}
	}
	return schedule{}
}

func (sc schedule) stepStart(c *mesh.Chip, s int) {
	if sc.ahead == 0 {
		c.SpanStart(recorder.OpGemmStep, s)
	}
}

func (sc schedule) stepEnd(c *mesh.Chip) {
	if sc.ahead == 0 {
		c.SpanEnd(recorder.OpGemmStep)
	}
}

func (sc schedule) computeStart(c *mesh.Chip, s int) {
	if sc.ahead > 0 {
		c.SpanStart(recorder.OpCompute, s)
	}
}

func (sc schedule) computeEnd(c *mesh.Chip) {
	if sc.ahead > 0 {
		c.SpanEnd(recorder.OpCompute)
	}
}

// gather all-gathers src along ax into dst: on the ring's comm lane under
// lookahead, returning the handle to wait on, else synchronously, returning
// nil.
func (sc schedule) gather(ax Axis, cm *mesh.Comm, src, dst *tensor.Matrix) *collective.Handle {
	async := sc.ahead > 0
	switch {
	case ax == AlongRows && async:
		return collective.StartAllGatherRowsInto(cm, src, dst)
	case ax == AlongRows:
		collective.AllGatherRowsInto(cm, src, dst)
	case async:
		return collective.StartAllGatherColsInto(cm, src, dst)
	default:
		collective.AllGatherColsInto(cm, src, dst)
	}
	return nil
}

// reduceScatter reduce-scatters src along ax into dst, like gather.
func (sc schedule) reduceScatter(ax Axis, cm *mesh.Comm, src, dst *tensor.Matrix) *collective.Handle {
	async := sc.ahead > 0
	switch {
	case ax == AlongRows && async:
		return collective.StartReduceScatterRowsInto(cm, src, dst)
	case ax == AlongRows:
		collective.ReduceScatterRowsInto(cm, src, dst)
	case async:
		return collective.StartReduceScatterColsInto(cm, src, dst)
	default:
		collective.ReduceScatterColsInto(cm, src, dst)
	}
	return nil
}

// wait completes h; a nil handle is a collective that already ran.
func wait(h *collective.Handle) {
	if h != nil {
		h.Wait()
	}
}

// Validate reports whether cfg can run the given problem on the torus:
// the sliced dimensions must divide by S·Block on every chip.
func (cfg MeshSliceConfig) Validate(p Problem, t topology.Torus) error {
	if cfg.S <= 0 || cfg.Block <= 0 {
		return fmt.Errorf("gemm: MeshSlice S=%d Block=%d must be positive", cfg.S, cfg.Block)
	}
	if p.Dataflow < OS || p.Dataflow > RS {
		return fmt.Errorf("gemm: unknown dataflow %d", int(p.Dataflow))
	}
	f := p.Dataflow.Flow()
	sb := cfg.S * cfg.Block
	aR, aC, bR, bC := p.OperandShapes()
	for _, m := range []struct {
		ax         Axis
		rows, cols int
	}{{f.A, aR, aC}, {f.B, bR, bC}, {f.C, p.M, p.N}} {
		var d int
		switch m.ax {
		case Stationary:
			continue
		case AlongRows:
			d = m.rows / t.Rows
		case AlongCols:
			d = m.cols / t.Cols
		}
		if !divisible(d, sb) {
			return fmt.Errorf("gemm: MeshSlice sliced dimension %d not divisible by S·B=%d on %v (%v)", d, sb, t, p.Dataflow)
		}
	}
	return nil
}

// MeshSlice returns the ChipFunc for the MeshSlice algorithm in the given
// dataflow.
func MeshSlice(df Dataflow, cfg MeshSliceConfig) ChipFunc {
	f := df.Flow()
	sc := scheduleOf(cfg.Pipelined)
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		return meshSlice(c, df, f, sc, cfg.S, cfg.Block, aij, bij)
	}
}

// Collective2D returns the ChipFunc for Collective 2D GeMM (paper §2.3.4,
// Fig. 2b): one monolithic AllGather per flowing input (and one
// ReduceScatter for a flowing output) around a single local GeMM. It is the
// approach used on TPU clusters via GSPMD, and it is MeshSlice with one
// slice, as in sched.CollectiveProgram.
func Collective2D(df Dataflow) ChipFunc {
	return MeshSlice(df, MeshSliceConfig{S: 1, Block: 1})
}

// meshSlice is the sliced loop (paper Fig. 5) on one chip: for each slice s,
// slice the flowing inputs and all-gather the sub-shards, multiply, and for
// a flowing output reduce-scatter the partial product and unslice it into
// C. Slice s+ahead's gathers are issued before slice s's MatMul, and slice
// s's reduce-scatter is waited ahead slices later; the buffers rotate by
// slice, so the op issued at slice s is waited before slice s+ahead+1
// rewrites its buffer.
func meshSlice(c *mesh.Chip, df Dataflow, f Flow, sc schedule, S, B int, aij, bij *tensor.Matrix) *tensor.Matrix {
	n := sc.ahead + 1 // live buffers per stream: the one the MatMul reads, plus one per slice in flight
	in := [2]*tensor.Matrix{aij, bij}
	moves := [2]Axis{f.A, f.B}
	var comms [2]*mesh.Comm
	// gathered[i][k] is input i's gathered slice in buffer k, or the input
	// itself when stationary.
	var gathered [2][2]*tensor.Matrix
	var gathering [2][2]*collective.Handle
	for i, ax := range moves {
		for k := 0; k < n; k++ {
			gathered[i][k] = in[i]
		}
		if ax == Stationary {
			continue
		}
		comms[i] = ax.comm(c)
		r, cols := ax.scale(in[i].Rows, in[i].Cols, comms[i].Size, S)
		for k := 0; k < n; k++ {
			gathered[i][k] = tensor.New(r, cols)
		}
	}

	// partial[k] receives each slice's product: C itself when the output is
	// stationary, else the partial that is reduce-scattered into
	// scattered[k] and unsliced into C.
	var partial, scattered [2]*tensor.Matrix
	var scattering [2]*collective.Handle
	var out *mesh.Comm
	var cij *tensor.Matrix
	pr, pc := df.productShape(gathered[0][0], gathered[1][0])
	if f.C == Stationary {
		cij = tensor.New(pr, pc)
		partial = [2]*tensor.Matrix{cij, cij}
	} else {
		out = f.C.comm(c)
		cij = tensor.New(f.C.scale(pr, pc, S, out.Size))
		for k := 0; k < n; k++ {
			partial[k] = tensor.New(pr, pc)
			scattered[k] = tensor.New(f.C.scale(pr, pc, 1, out.Size))
		}
	}

	issue := func(s int) {
		k := s % n
		for i, ax := range moves {
			if ax != Stationary {
				gathering[i][k] = sc.gather(ax, comms[i], ax.slice(in[i], S, s, B), gathered[i][k])
			}
		}
	}
	drain := func(s int) {
		k := s % n
		wait(scattering[k])
		f.C.unslice(cij, scattered[k], S, s, B)
	}

	for s := 0; s < sc.ahead && s < S; s++ {
		issue(s)
	}
	for s := 0; s < S; s++ {
		k := s % n
		sc.stepStart(c, s)
		if s+sc.ahead < S {
			issue(s + sc.ahead)
		}
		wait(gathering[0][k])
		wait(gathering[1][k])
		sc.computeStart(c, s)
		if f.C != Stationary {
			partial[k].Zero()
		}
		df.accumulate(partial[k], gathered[0][k], gathered[1][k])
		sc.computeEnd(c)
		if f.C != Stationary {
			scattering[k] = sc.reduceScatter(f.C, out, partial[k], scattered[k])
			if s >= sc.ahead {
				drain(s - sc.ahead)
			}
		}
		sc.stepEnd(c)
	}
	if f.C != Stationary {
		for s := max(S-sc.ahead, 0); s < S; s++ {
			drain(s)
		}
	}
	return cij
}
