package main

import (
	"fmt"
	"math/rand"
	"time"

	"meshslice/internal/collective"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// Layer replays shared by the functional workloads: the step's tensor
// kernel calls at their shard and slice shapes, its collectives at their
// slice shapes, and its distributed GeMMs timed per chip, all on data and
// meshes the benchmark owns.

// kernelCall is one tensor GeMM kernel call on one chip: an m×n output
// with inner dimension k, in one of the three operand layouts.
type kernelCall struct {
	kind    string // "nn" (MatMulAdd), "nt" (MatMulAddNT) or "tn" (MatMulAddTN)
	m, n, k int
}

func (c kernelCall) flops() float64 { return 2 * float64(c.m) * float64(c.n) * float64(c.k) }

// meshSliceKernels lists one chip's kernel calls for a MeshSlice GeMM:
// one per slice, at the gathered sub-shard shapes of gemm/meshslice.go.
func meshSliceKernels(p gemm.Problem, t topology.Torus, S int) []kernelCall {
	var c kernelCall
	switch p.Dataflow {
	case gemm.OS: // C += A'·B', A' M/Pr × K/S, B' K/S × N/Pc
		c = kernelCall{"nn", p.M / t.Rows, p.N / t.Cols, p.K / S}
	case gemm.LS: // C' = A·B'ᵀ, A M/Pr × K/Pc, B' N/S × K/Pc
		c = kernelCall{"nt", p.M / t.Rows, p.N / S, p.K / t.Cols}
	case gemm.RS: // C' = A'ᵀ·B, A' K/Pr × M/S, B K/Pr × N/Pc
		c = kernelCall{"tn", p.M / S, p.N / t.Cols, p.K / t.Rows}
	}
	out := make([]kernelCall, S)
	for i := range out {
		out[i] = c
	}
	return out
}

// collCall is one collective call on one chip.
type collCall struct {
	op         string // "allgather", "reducescatter" or "allreduce"
	rowRing    bool   // the RowComm ring (along a mesh row) or the ColComm ring
	rows, cols int    // input shape
}

// meshSliceCollectives lists one chip's collective calls for a MeshSlice
// GeMM, at the slice shapes of gemm/meshslice.go.
func meshSliceCollectives(p gemm.Problem, t topology.Torus, S int) []collCall {
	var pair [2]collCall
	switch p.Dataflow {
	case gemm.OS:
		pair = [2]collCall{
			{"allgather", true, p.M / t.Rows, p.K / (t.Cols * S)},
			{"allgather", false, p.K / (t.Rows * S), p.N / t.Cols},
		}
	case gemm.LS:
		pair = [2]collCall{
			{"allgather", false, p.N / (t.Rows * S), p.K / t.Cols},
			{"reducescatter", true, p.M / t.Rows, p.N / S},
		}
	case gemm.RS:
		pair = [2]collCall{
			{"allgather", true, p.K / t.Rows, p.M / (t.Cols * S)},
			{"reducescatter", false, p.M / S, p.N / t.Cols},
		}
	}
	var out []collCall
	for s := 0; s < S; s++ {
		out = append(out, pair[:]...)
	}
	return out
}

// kernelReplay replays kernel calls on one goroutine, into buffers
// allocated once per distinct call shape.
type kernelReplay struct {
	calls []kernelCall
	bufs  map[kernelCall][3]*tensor.Matrix
}

func newKernelReplay(calls []kernelCall, rng *rand.Rand) *kernelReplay {
	r := &kernelReplay{calls: calls, bufs: map[kernelCall][3]*tensor.Matrix{}}
	for _, c := range calls {
		if _, ok := r.bufs[c]; ok {
			continue
		}
		var a, b *tensor.Matrix
		switch c.kind {
		case "nn":
			a, b = tensor.Random(c.m, c.k, rng), tensor.Random(c.k, c.n, rng)
		case "nt":
			a, b = tensor.Random(c.m, c.k, rng), tensor.Random(c.n, c.k, rng)
		case "tn":
			a, b = tensor.Random(c.k, c.m, rng), tensor.Random(c.k, c.n, rng)
		}
		r.bufs[c] = [3]*tensor.Matrix{tensor.New(c.m, c.n), a, b}
	}
	return r
}

// run replays every call under a "tensor.<kind>" span.
func (r *kernelReplay) run(l *lane, parent spanID) {
	for _, c := range r.calls {
		buf := r.bufs[c]
		sp := l.begin("tensor."+c.kind, parent)
		switch c.kind {
		case "nn":
			tensor.MatMulAdd(buf[0], buf[1], buf[2])
		case "nt":
			tensor.MatMulAddNT(buf[0], buf[1], buf[2])
		case "tn":
			tensor.MatMulAddTN(buf[0], buf[1], buf[2])
		}
		l.end(sp)
	}
}

func kernelFLOPs(calls []kernelCall) float64 {
	var f float64
	for _, c := range calls {
		f += c.flops()
	}
	return f
}

// collReplay replays one chip's collective calls on every chip of a mesh,
// into buffers allocated once per chip and call shape.
type collReplay struct {
	calls []collCall
	async bool                             // Start*Into + Wait, as the pipelined GeMMs issue them
	bufs  []map[collCall][2]*tensor.Matrix // per rank: input, output
}

func newCollReplay(t topology.Torus, calls []collCall, async bool) *collReplay {
	r := &collReplay{calls: calls, async: async}
	for rank := 0; rank < t.Size(); rank++ {
		m := map[collCall][2]*tensor.Matrix{}
		for _, c := range calls {
			if _, ok := m[c]; ok {
				continue
			}
			p := t.Rows // the ColComm ring's size
			if c.rowRing {
				p = t.Cols
			}
			or, oc := c.rows, c.cols
			switch {
			case c.op == "allgather" && c.rowRing:
				oc *= p
			case c.op == "allgather":
				or *= p
			case c.op == "reducescatter" && c.rowRing:
				oc /= p
			case c.op == "reducescatter":
				or /= p
			}
			m[c] = [2]*tensor.Matrix{tensor.New(c.rows, c.cols), tensor.New(or, oc)}
		}
		r.bufs = append(r.bufs, m)
	}
	return r
}

// run replays the calls on every chip of m, each under a
// "collective.<op>" span on the chip's lane (lane 1+rank).
func (r *collReplay) run(m *mesh.Mesh, tr *tracer, parent spanID) {
	m.Run(func(ch *mesh.Chip) {
		l := tr.lanes[1+ch.Rank]
		for _, c := range r.calls {
			cm := ch.ColComm()
			if c.rowRing {
				cm = ch.RowComm()
			}
			buf := r.bufs[ch.Rank][c]
			sp := l.begin("collective."+c.op, parent)
			r.call(cm, c, buf[0], buf[1])
			l.end(sp)
		}
	})
}

func (r *collReplay) call(cm *mesh.Comm, c collCall, in, out *tensor.Matrix) {
	if c.op == "allreduce" {
		collective.AllReduceInto(cm, in, out)
		return
	}
	if r.async {
		var h *collective.Handle
		switch {
		case c.op == "allgather" && c.rowRing:
			h = collective.StartAllGatherColsInto(cm, in, out)
		case c.op == "allgather":
			h = collective.StartAllGatherRowsInto(cm, in, out)
		case c.rowRing:
			h = collective.StartReduceScatterColsInto(cm, in, out)
		default:
			h = collective.StartReduceScatterRowsInto(cm, in, out)
		}
		h.Wait()
		return
	}
	switch {
	case c.op == "allgather" && c.rowRing:
		collective.AllGatherColsInto(cm, in, out)
	case c.op == "allgather":
		collective.AllGatherRowsInto(cm, in, out)
	case c.rowRing:
		collective.ReduceScatterColsInto(cm, in, out)
	default:
		collective.ReduceScatterRowsInto(cm, in, out)
	}
}

// gemmCall is one distributed GeMM of a step with its per-rank operand
// shards.
type gemmCall struct {
	p    gemm.Problem
	a, b []*tensor.Matrix
}

func newGemmCalls(probs []gemm.Problem, t topology.Torus, rng *rand.Rand) []gemmCall {
	var out []gemmCall
	for _, p := range probs {
		aR, aC, bR, bC := p.OperandShapes()
		out = append(out, gemmCall{
			p: p,
			a: tensor.Partition(tensor.Random(aR, aC, rng), t.Rows, t.Cols),
			b: tensor.Partition(tensor.Random(bR, bC, rng), t.Rows, t.Cols),
		})
	}
	return out
}

// runGemms runs the GeMMs in order on every chip of m, timing each chip's
// ChipFunc call under a "gemm.<dataflow>" span on the chip's lane.
func runGemms(m *mesh.Mesh, tr *tracer, parent spanID, calls []gemmCall, cfg gemm.MeshSliceConfig) {
	fns := map[gemm.Dataflow]gemm.ChipFunc{
		gemm.OS: gemm.MeshSlice(gemm.OS, cfg),
		gemm.LS: gemm.MeshSlice(gemm.LS, cfg),
		gemm.RS: gemm.MeshSlice(gemm.RS, cfg),
	}
	m.Run(func(ch *mesh.Chip) {
		for _, c := range calls {
			timedGemm(tr, ch, parent, c.p.Dataflow, fns[c.p.Dataflow], c.a[ch.Rank], c.b[ch.Rank])
		}
	})
}

// timedGemm runs one chip's ChipFunc call under a "gemm.<dataflow>" span.
func timedGemm(tr *tracer, ch *mesh.Chip, parent spanID, df gemm.Dataflow, fn gemm.ChipFunc, a, b *tensor.Matrix) *tensor.Matrix {
	l := tr.lanes[1+ch.Rank]
	sp := l.begin(gemmSpan[df], parent)
	c := fn(ch, a, b)
	l.end(sp)
	return c
}

var gemmSpan = map[gemm.Dataflow]string{gemm.OS: "gemm.os", gemm.LS: "gemm.ls", gemm.RS: "gemm.rs"}

// gemmMetrics derives the gemm.* metrics from the per-chip spans: each
// dataflow's time on its slowest chip and the skew of the chips' totals.
func gemmMetrics(spans []span, chips int, out map[string]float64) {
	byLane := selfByLaneName(spans)
	totals := make([]float64, chips)
	for _, name := range gemmSpan {
		slowest := 0.0
		for rank := 0; rank < chips; rank++ {
			v := byLane[1+rank][name]
			totals[rank] += v
			slowest = max(slowest, v)
		}
		out[name+".ms"] = slowest
	}
	out["gemm.chip_skew"] = maxOf(totals) / median(totals)
}

// collectiveMetrics derives the collective.* metrics: each op's time on
// its slowest chip, its calls per chip and step, and the bytes the replay
// moved per second of collective time.
func collectiveMetrics(spans []span, chips int, calls []collCall, bytes float64, out map[string]float64) {
	byLane := selfByLaneName(spans)
	var total float64
	for _, op := range []string{"allgather", "reducescatter", "allreduce"} {
		n := 0
		for _, c := range calls {
			if c.op == op {
				n++
			}
		}
		slowest := 0.0
		for rank := 0; rank < chips; rank++ {
			slowest = max(slowest, byLane[1+rank]["collective."+op])
		}
		out["collective."+op+".calls"] = float64(n)
		out["collective."+op+".ms"] = slowest
		total += slowest
	}
	out["collective.gb_per_s"] = bytes / (total / 1e3) / 1e9
}

// replays holds the layer replays of a functional step on the
// benchmark's own mesh: the step's kernel calls on every chip, split into
// those of its distributed GeMMs and the rest, and one chip's collectives.
type replays struct {
	m             *mesh.Mesh
	chips         int
	gemmK, otherK *kernelReplay
	cr            *collReplay
	kernelGFLOP   float64
}

func newReplays(t topology.Torus, gemmKernels, otherKernels []kernelCall, colls []collCall, async bool, rng *rand.Rand) *replays {
	return &replays{
		m:           mesh.New(t),
		chips:       t.Size(),
		gemmK:       newKernelReplay(gemmKernels, rng),
		otherK:      newKernelReplay(otherKernels, rng),
		cr:          newCollReplay(t, colls, async),
		kernelGFLOP: (kernelFLOPs(gemmKernels) + kernelFLOPs(otherKernels)) / 1e9,
	}
}

// run replays the collectives and the kernels and fills the collective,
// tensor and mesh metrics, and the GeMM wait estimate from the gemm.*
// metrics already in vals.
func (r *replays) run(vals map[string]float64) {
	tr := newTracer(1 + r.chips)
	r.m.ResetTraffic()
	r.cr.run(r.m, tr, noParent)
	collectiveMetrics(tr.spans(), r.chips, r.cr.calls, float64(r.m.Traffic().Elements)*8, vals)

	tr = newTracer(1)
	l := tr.lanes[0]
	g := l.begin("kernels.gemm", noParent)
	r.gemmK.run(l, g)
	l.end(g)
	o := l.begin("kernels.other", noParent)
	r.otherK.run(l, o)
	l.end(o)
	spans := tr.spans()
	self := selfByName(spans)
	n := countByName(spans)
	var total float64
	for _, k := range []string{"nn", "nt", "tn"} {
		vals["tensor."+k+".calls"] = float64(n["tensor."+k])
		vals["tensor."+k+".ms"] = self["tensor."+k]
		total += self["tensor."+k]
	}
	vals["tensor.gflop_per_s"] = r.kernelGFLOP / (total / 1e3)

	// An estimate, not a measurement of waiting: GeMM time on the slowest
	// chips minus one chip's share of the GeMM kernels and the GeMM
	// collectives, each replayed alone.
	vals["gemm.wait_ms"] = vals["gemm.os.ms"] + vals["gemm.ls.ms"] + vals["gemm.rs.ms"] -
		childMS(spans, g)/float64(r.chips) - vals["collective.allgather.ms"] - vals["collective.reducescatter.ms"]

	meshMetrics(r.m, vals)
}

// childMS sums the durations of the spans whose parent is id.
func childMS(spans []span, id spanID) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.parent == id {
			d += s.end - s.start
		}
	}
	return ms(d)
}

// meshMetrics times an empty Run on the mesh and a message round trip
// between rank 0 and its neighbour along the row.
func meshMetrics(m *mesh.Mesh, out map[string]float64) {
	const runs, trips = 200, 200
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		m.Run(func(*mesh.Chip) {})
	}
	out["mesh.run_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / runs
	peer := 1
	var rt time.Duration
	m.Run(func(ch *mesh.Chip) {
		msg := tensor.New(1, 1)
		switch ch.Rank {
		case 0:
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				ch.Send(peer, msg)
				ch.Recv(peer)
			}
			rt = time.Since(t0)
		case peer:
			for i := 0; i < trips; i++ {
				ch.Send(0, ch.Recv(0))
			}
		}
	})
	out["mesh.roundtrip_us"] = float64(rt.Nanoseconds()) / 1e3 / trips
}

// trafficMetrics reads the mesh's exact traffic since its last reset.
func trafficMetrics(m *mesh.Mesh, out map[string]float64) {
	tr := m.Traffic()
	out["mesh.msgs_per_step"] = float64(tr.Messages)
	out["mesh.mb_per_step"] = float64(tr.Elements) * 8 / 1e6
}

// overlapFraction runs the GeMMs once on a recorded mesh and returns the
// recorder's structural comm/compute overlap.
func overlapFraction(t topology.Torus, calls []gemmCall, cfg gemm.MeshSliceConfig) float64 {
	m := mesh.New(t)
	rec := recorder.New(t.Size(), 1<<14)
	m.SetRecorder(rec)
	runGemms(m, newTracer(1+t.Size()), noParent, calls, cfg)
	return rec.Overlap().Fraction
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// sumSquares, relu, maskInto and subInto are the MLP's element-wise ops,
// as minitrain computes them.
func sumSquares(m *tensor.Matrix) float64 {
	var t float64
	for _, v := range m.Data {
		t += v * v
	}
	return t
}

func relu(m *tensor.Matrix) *tensor.Matrix {
	out := m.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

func maskInto(grad, pre *tensor.Matrix) {
	for i, v := range pre.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

func subInto(dst, delta *tensor.Matrix) {
	for i, v := range delta.Data {
		dst.Data[i] -= v
	}
}

// lossMismatch reports a loss that differs from the reference by more
// than the tolerance the package tests use.
func lossMismatch(what string, got, want float64) error {
	if d := got - want; d > lossTol || d < -lossTol {
		return fmt.Errorf("%s loss %v, reference %v", what, got, want)
	}
	return nil
}

// lossTol is the tolerance the transformer and minitrain tests compare
// distributed results to the serial reference with.
const lossTol = 1e-9
