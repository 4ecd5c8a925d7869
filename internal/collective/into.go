package collective

import (
	"fmt"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
)

// Buffer-reusing collectives. Each *Into variant performs the same ring
// schedule — and produces bit-identical results — as its allocating
// counterpart, but writes into caller-provided storage and circulates one
// scratch buffer from the mesh pool around the ring with ownership-transfer
// sends, so the steady state allocates nothing: the chip that starts a ring
// stream acquires the buffer, every hop forwards the exact matrix it
// received, and the chip holding it after the last step releases it back to
// the pool. The allocating APIs in collective.go are thin wrappers over
// these, so every GeMM algorithm takes this path.
//
// Ownership rules: arguments are never aliased — inputs are only read,
// destinations are fully overwritten, and no internal buffer escapes to the
// caller. Destinations must be pre-shaped; a shape mismatch panics.

// AllGatherInto gathers each ring member's local shard into out, ordered by
// ring position. out must hold one matrix of local's shape per ring
// position; every entry is overwritten.
// lint:hotpath steady-state: must not allocate
func AllGatherInto(cm *mesh.Comm, local *tensor.Matrix, out []*tensor.Matrix) {
	if err := checkBlocks("allgather", out, cm.Size); err != nil {
		panic(err) // lint:invariant block-count precondition, mirrors AllGather's ring contract
	}
	cm.CountCollective("allgather")
	cm.SpanStart(recorder.OpAllGather, -1)
	defer cm.SpanEnd(recorder.OpAllGather)
	p := cm.Size
	out[cm.Pos].CopyFrom(local)
	if p == 1 {
		return
	}
	cur := cm.AcquireBuf(local.Rows, local.Cols)
	cur.CopyFrom(local)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		out[mod(cm.Pos-t-1, p)].CopyFrom(cur)
	}
	cm.ReleaseBuf(cur)
}

// AllGatherRowsInto gathers shards and concatenates them vertically in ring
// order directly into dst, which must be (Size·local.Rows)×local.Cols.
// lint:hotpath steady-state: must not allocate
func AllGatherRowsInto(cm *mesh.Comm, local, dst *tensor.Matrix) {
	p := cm.Size
	if dst.Rows != p*local.Rows || dst.Cols != local.Cols {
		panic(fmt.Sprintf("collective: AllGatherRowsInto dst %dx%d for %d shards of %dx%d", dst.Rows, dst.Cols, p, local.Rows, local.Cols)) // lint:invariant shape precondition
	}
	cm.CountCollective("allgather")
	cm.SpanStart(recorder.OpAllGather, -1)
	defer cm.SpanEnd(recorder.OpAllGather)
	allGatherRowsLoop(cm, local, dst)
}

// allGatherRowsLoop is the raw ring schedule of AllGatherRowsInto, shared
// with the asynchronous StartAllGatherRowsInto (whose span the background
// lane's op log records instead).
// lint:hotpath steady-state: must not allocate
func allGatherRowsLoop(cm *mesh.Comm, local, dst *tensor.Matrix) {
	p := cm.Size
	dst.SetSubMatrix(cm.Pos*local.Rows, 0, local)
	if p == 1 {
		return
	}
	cur := cm.AcquireBuf(local.Rows, local.Cols)
	cur.CopyFrom(local)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		dst.SetSubMatrix(mod(cm.Pos-t-1, p)*local.Rows, 0, cur)
	}
	cm.ReleaseBuf(cur)
}

// AllGatherColsInto gathers shards and concatenates them horizontally in
// ring order directly into dst, which must be local.Rows×(Size·local.Cols).
// lint:hotpath steady-state: must not allocate
func AllGatherColsInto(cm *mesh.Comm, local, dst *tensor.Matrix) {
	p := cm.Size
	if dst.Rows != local.Rows || dst.Cols != p*local.Cols {
		panic(fmt.Sprintf("collective: AllGatherColsInto dst %dx%d for %d shards of %dx%d", dst.Rows, dst.Cols, p, local.Rows, local.Cols)) // lint:invariant shape precondition
	}
	cm.CountCollective("allgather")
	cm.SpanStart(recorder.OpAllGather, -1)
	defer cm.SpanEnd(recorder.OpAllGather)
	allGatherColsLoop(cm, local, dst)
}

// allGatherColsLoop is the raw ring schedule of AllGatherColsInto, shared
// with StartAllGatherColsInto.
// lint:hotpath steady-state: must not allocate
func allGatherColsLoop(cm *mesh.Comm, local, dst *tensor.Matrix) {
	p := cm.Size
	dst.SetSubMatrix(0, cm.Pos*local.Cols, local)
	if p == 1 {
		return
	}
	cur := cm.AcquireBuf(local.Rows, local.Cols)
	cur.CopyFrom(local)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		dst.SetSubMatrix(0, mod(cm.Pos-t-1, p)*local.Cols, cur)
	}
	cm.ReleaseBuf(cur)
}

// ReduceScatterInto reduces element-wise across the ring and scatters into
// dst: blocks must hold one block per ring position, and dst receives the
// sum over all chips of their block for this chip's position. The caller's
// blocks are never mutated.
// lint:hotpath steady-state: must not allocate
func ReduceScatterInto(cm *mesh.Comm, blocks []*tensor.Matrix, dst *tensor.Matrix) {
	if err := checkBlocks("reducescatter", blocks, cm.Size); err != nil {
		panic(err) // lint:invariant block-count precondition; the panic value is a typed *RingSizeError
	}
	cm.CountCollective("reducescatter")
	cm.SpanStart(recorder.OpReduceScatter, -1)
	defer cm.SpanEnd(recorder.OpReduceScatter)
	p := cm.Size
	if p == 1 {
		dst.CopyFrom(blocks[0])
		return
	}
	cur := cm.AcquireBuf(dst.Rows, dst.Cols)
	cur.CopyFrom(blocks[mod(cm.Pos-1, p)])
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		cur.Add(blocks[mod(cm.Pos-t-2, p)])
	}
	dst.CopyFrom(cur)
	cm.ReleaseBuf(cur)
}

// ReduceScatterRowsInto reduces a matrix whose rows are split evenly across
// the ring into dst: every chip contributes the full matrix m and dst
// receives the reduced horizontal strip for this chip's ring position. The
// strips are read straight out of m — no split copies are made.
// lint:hotpath steady-state: must not allocate
func ReduceScatterRowsInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	p := cm.Size
	if m.Rows%p != 0 || dst.Rows != m.Rows/p || dst.Cols != m.Cols {
		panic(fmt.Sprintf("collective: ReduceScatterRowsInto dst %dx%d for %dx%d over ring of %d", dst.Rows, dst.Cols, m.Rows, m.Cols, p)) // lint:invariant shape precondition
	}
	cm.CountCollective("reducescatter")
	cm.SpanStart(recorder.OpReduceScatter, -1)
	defer cm.SpanEnd(recorder.OpReduceScatter)
	reduceScatterRowsLoop(cm, m, dst)
}

// reduceScatterRowsLoop is the raw ring schedule of ReduceScatterRowsInto,
// shared with StartReduceScatterRowsInto.
// lint:hotpath steady-state: must not allocate
func reduceScatterRowsLoop(cm *mesh.Comm, m, dst *tensor.Matrix) {
	p := cm.Size
	h := m.Rows / p
	if p == 1 {
		dst.CopyFrom(m)
		return
	}
	cur := cm.AcquireBuf(h, m.Cols)
	cur.CopySub(m, mod(cm.Pos-1, p)*h, 0)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		cur.AddSub(m, mod(cm.Pos-t-2, p)*h, 0)
	}
	dst.CopyFrom(cur)
	cm.ReleaseBuf(cur)
}

// ReduceScatterColsInto is ReduceScatterRowsInto for vertical strips: dst
// receives the reduced column strip for this chip's ring position.
// lint:hotpath steady-state: must not allocate
func ReduceScatterColsInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	p := cm.Size
	if m.Cols%p != 0 || dst.Rows != m.Rows || dst.Cols != m.Cols/p {
		panic(fmt.Sprintf("collective: ReduceScatterColsInto dst %dx%d for %dx%d over ring of %d", dst.Rows, dst.Cols, m.Rows, m.Cols, p)) // lint:invariant shape precondition
	}
	cm.CountCollective("reducescatter")
	cm.SpanStart(recorder.OpReduceScatter, -1)
	defer cm.SpanEnd(recorder.OpReduceScatter)
	reduceScatterColsLoop(cm, m, dst)
}

// reduceScatterColsLoop is the raw ring schedule of ReduceScatterColsInto,
// shared with StartReduceScatterColsInto.
// lint:hotpath steady-state: must not allocate
func reduceScatterColsLoop(cm *mesh.Comm, m, dst *tensor.Matrix) {
	p := cm.Size
	w := m.Cols / p
	if p == 1 {
		dst.CopyFrom(m)
		return
	}
	cur := cm.AcquireBuf(m.Rows, w)
	cur.CopySub(m, 0, mod(cm.Pos-1, p)*w)
	for t := 0; t < p-1; t++ {
		cm.SendOwnedTo(cm.Pos+1, cur)
		cur = cm.RecvFrom(cm.Pos - 1)
		cur.AddSub(m, 0, mod(cm.Pos-t-2, p)*w)
	}
	dst.CopyFrom(cur)
	cm.ReleaseBuf(cur)
}

// BroadcastInto distributes root's matrix into every ring member's dst —
// root included, so the operation is symmetric: every rank ends up with its
// own caller-owned copy and nothing aliases m. Non-root chips pass nil for
// m; unlike Broadcast they must pre-shape dst to the root's shape.
//
// Steady-state allocation note: the root only sends, so a tight loop of
// same-root broadcasts with no interleaved receive can run ahead of the
// ring, and every in-flight call pins its own buffer (the fabric is an
// unbounded FIFO). The runtime enforces the bound rather than leaving it a
// caveat: each stream start without an intervening receive counts against
// mesh.MaxStreamStarts, and exceeding the cap surfaces as a typed
// *mesh.StreamBacklogError via RunE. With rotating roots — the SUMMA
// pattern — or any interleaved receive, the counter resets, the pool
// recycles fully, and calls stop allocating. The same applies to
// ReduceInto's stream starter (the chip after the root).
// lint:hotpath steady-state: must not allocate
func BroadcastInto(cm *mesh.Comm, root int, m, dst *tensor.Matrix) {
	broadcast(cm, root, m, dst)
}

// broadcast is the ring loop of Broadcast and BroadcastInto: it returns dst
// holding root's matrix, allocating a nil dst (Broadcast's) on delivery,
// once the shape is known.
func broadcast(cm *mesh.Comm, root int, m, dst *tensor.Matrix) *tensor.Matrix {
	cm.CountCollective("broadcast")
	cm.SpanStart(recorder.OpBroadcast, -1)
	defer cm.SpanEnd(recorder.OpBroadcast)
	p := cm.Size
	dist := mod(cm.Pos-root, p) // hops from root to this chip
	if dist == 0 {
		if p > 1 {
			cm.NoteStreamStart(m.Rows, m.Cols)
			cur := cm.AcquireBuf(m.Rows, m.Cols)
			cur.CopyFrom(m)
			cm.SendOwnedTo(cm.Pos+1, cur)
		}
		return deliver(dst, m)
	}
	cur := cm.RecvFrom(cm.Pos - 1)
	dst = deliver(dst, cur)
	if dist < p-1 {
		cm.SendOwnedTo(cm.Pos+1, cur)
	} else {
		cm.ReleaseBuf(cur)
	}
	return dst
}

// deliver copies src into dst and returns it; a nil dst gets a fresh copy.
// lint:allow hotpath-alloc only Broadcast passes a nil dst; BroadcastInto's steady state never allocates here
func deliver(dst, src *tensor.Matrix) *tensor.Matrix {
	if dst == nil {
		return src.Clone()
	}
	if dst != src {
		dst.CopyFrom(src)
	}
	return dst
}

// ReduceInto accumulates every ring member's matrix into the root's dst and
// reports whether this chip is the root: at the root dst receives the sum
// and the call returns true; elsewhere dst is untouched and the call
// returns false. The accumulation order matches Reduce, so results are
// bit-identical.
// lint:hotpath steady-state: must not allocate
func ReduceInto(cm *mesh.Comm, root int, m, dst *tensor.Matrix) bool {
	cm.CountCollective("reduce")
	cm.SpanStart(recorder.OpReduce, -1)
	defer cm.SpanEnd(recorder.OpReduce)
	p := cm.Size
	root = mod(root, p)
	if p == 1 {
		if dst != m {
			dst.CopyFrom(m)
		}
		return true
	}
	switch mod(cm.Pos-root, p) {
	case 1: // journey start
		cm.NoteStreamStart(m.Rows, m.Cols)
		cur := cm.AcquireBuf(m.Rows, m.Cols)
		cur.CopyFrom(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		return false
	case 0: // root: last to accumulate
		cur := cm.RecvFrom(cm.Pos - 1)
		cur.Add(m)
		dst.CopyFrom(cur)
		cm.ReleaseBuf(cur)
		return true
	default:
		cur := cm.RecvFrom(cm.Pos - 1)
		cur.Add(m)
		cm.SendOwnedTo(cm.Pos+1, cur)
		return false
	}
}

// AllReduceInto writes the element-wise sum of every ring member's matrix
// into every member's dst, composed exactly like AllReduce (Reduce to
// position 0, then Broadcast). dst must have m's shape.
// lint:hotpath steady-state: must not allocate
func AllReduceInto(cm *mesh.Comm, m, dst *tensor.Matrix) {
	cm.CountCollective("allreduce")
	cm.SpanStart(recorder.OpAllReduce, -1)
	defer cm.SpanEnd(recorder.OpAllReduce)
	if ReduceInto(cm, 0, m, dst) {
		BroadcastInto(cm, 0, dst, dst)
	} else {
		BroadcastInto(cm, 0, nil, dst)
	}
}
