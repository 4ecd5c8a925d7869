package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"meshslice/internal/collective"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/minitrain"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
	"meshslice/internal/transformer"
)

// transformerSpec is one transformer.TrainStack step of a 2-layer
// stack on a 2x2 mesh with the serial MeshSlice schedule, from weights and
// data drawn from the seed.
type transformerSpec struct {
	cfg    transformer.Config
	layers int
	torus  topology.Torus
	lr     float64
}

var transformerWorkload = transformerSpec{
	cfg:    transformer.Config{Batch: 4, Seq: 32, Heads: 8, HeadDim: 16, FFHidden: 512, S: 2, Block: 4},
	layers: 2,
	torus:  topology.NewTorus(2, 2),
	lr:     0.02,
}

type transformerInst struct {
	w         transformerSpec
	stack     transformer.Stack
	x, target *tensor.Matrix
	ref       transformer.TrainResult // the 1x1-mesh step
	loss      float64                 // the workload step's loss

	// The step's kernel calls on every chip, and one chip's collectives.
	gemmKernels, attnKernels []kernelCall
	colls                    []collCall

	// Traced-run state, built on the first traced iteration.
	rep     *replays
	gemms   []gemmCall
	overlap float64
}

func newTransformerInst(w transformerSpec, seed int64) (*transformerInst, error) {
	c := w.cfg
	rng := rand.New(rand.NewSource(seed))
	in := &transformerInst{
		w:      w,
		stack:  transformer.NewStack(c, w.layers, seed),
		x:      tensor.Random(c.Tokens(), c.Hidden(), rng),
		target: tensor.Random(c.Tokens(), c.Hidden(), rng),
	}
	in.listCalls()
	var err error
	if in.ref, err = transformer.TrainStack(in.stack, topology.NewTorus(1, 1), in.x, in.target, 1, w.lr); err != nil {
		return nil, err
	}
	res, err := in.run()
	if err != nil {
		return nil, err
	}
	in.loss = res.Losses[0]
	return in, nil
}

func (in *transformerInst) run() (transformer.TrainResult, error) {
	res, err := transformer.TrainStack(in.stack, in.w.torus, in.x, in.target, 1, in.w.lr)
	if err != nil {
		return res, err
	}
	if err := lossMismatch("TrainStack", res.Losses[0], in.ref.Losses[0]); err != nil {
		return res, err
	}
	for l, b := range res.Stack.Blocks {
		r := in.ref.Stack.Blocks[l]
		for i, p := range [][2]*tensor.Matrix{{b.Wq, r.Wq}, {b.Wk, r.Wk}, {b.Wv, r.Wv}, {b.Wo, r.Wo}, {b.W1, r.W1}, {b.W2, r.W2}} {
			if !p[0].Equal(p[1], lossTol) {
				return res, fmt.Errorf("block %d weight %d differs from the 1x1 step by %g", l, i, p[0].MaxAbsDiff(p[1]))
			}
		}
	}
	return res, nil
}

// step runs one TrainStack step and checks its loss and updated weights
// against the 1x1 mesh's.
func (in *transformerInst) step() error {
	_, err := in.run()
	return err
}

func (in *transformerInst) flops() float64 {
	return kernelFLOPs(in.gemmKernels) + kernelFLOPs(in.attnKernels)
}

// problems lists the step's distributed GeMMs for one block, in the order
// transformer's forward and backward issue them.
func (w transformerSpec) problems() []gemm.Problem {
	t, h, f := w.cfg.Tokens(), w.cfg.Hidden(), w.cfg.FFHidden
	os := func(m, n, k int) gemm.Problem { return gemm.Problem{M: m, N: n, K: k, Dataflow: gemm.OS} }
	ls := func(m, n, k int) gemm.Problem { return gemm.Problem{M: m, N: n, K: k, Dataflow: gemm.LS} }
	rs := func(m, n, k int) gemm.Problem { return gemm.Problem{M: m, N: n, K: k, Dataflow: gemm.RS} }
	return []gemm.Problem{
		// Forward: Q, K, V, output projection, FF1, FF2.
		os(t, h, h), os(t, h, h), os(t, h, h), os(t, h, h), os(t, f, h), os(t, h, f),
		// Backward: W2, dFF, W1, dN2, Wo, dCtx, Wq, Wk, Wv, dN1 ×3.
		rs(f, h, t), ls(t, f, h), rs(h, f, t), ls(t, h, f), rs(h, h, t), ls(t, h, h),
		rs(h, h, t), rs(h, h, t), rs(h, h, t), ls(t, h, h), ls(t, h, h), ls(t, h, h),
	}
}

// attentionKernels lists one chip's attention kernel calls for one block:
// per local (sequence, head), QKᵀ and PV forward, and the four products of
// the backward pass.
func (w transformerSpec) attentionKernels() []kernelCall {
	c := w.cfg
	pairs := (c.Batch / w.torus.Rows) * (c.Heads / w.torus.Cols)
	s, d := c.Seq, c.HeadDim
	one := []kernelCall{
		{"nt", s, s, d}, {"nn", s, d, s}, // scores, context
		{"tn", s, d, s}, {"nt", s, s, d}, {"nn", s, d, s}, {"tn", s, d, s}, // dV, dA, dQ, dK
	}
	var out []kernelCall
	for i := 0; i < pairs; i++ {
		out = append(out, one...)
	}
	return out
}

// listCalls derives the step's kernel and collective calls from its
// GeMM problems and attention shapes.
func (in *transformerInst) listCalls() {
	w := in.w
	for l := 0; l < w.layers; l++ {
		for _, p := range w.problems() {
			in.colls = append(in.colls, meshSliceCollectives(p, w.torus, w.cfg.S)...)
			for i := 0; i < w.torus.Size(); i++ {
				in.gemmKernels = append(in.gemmKernels, meshSliceKernels(p, w.torus, w.cfg.S)...)
			}
		}
		for i := 0; i < w.torus.Size(); i++ {
			in.attnKernels = append(in.attnKernels, w.attentionKernels()...)
		}
	}
}

func (in *transformerInst) buildReplays() {
	if in.rep != nil {
		return
	}
	w := in.w
	rng := rand.New(rand.NewSource(1))
	var probs []gemm.Problem
	for l := 0; l < w.layers; l++ {
		probs = append(probs, w.problems()...)
	}
	in.rep = newReplays(w.torus, in.gemmKernels, in.attnKernels, in.colls, false, rng)
	in.gemms = newGemmCalls(probs, w.torus, rng)
	in.overlap = overlapFraction(w.torus, in.gemms, in.msCfg())
}

func (in *transformerInst) msCfg() gemm.MeshSliceConfig {
	return gemm.MeshSliceConfig{S: in.w.cfg.S, Block: in.w.cfg.Block}
}

// traced composes the step from transformer.Forward and
// transformer.Gradients per block (Gradients re-runs its block's forward),
// checks the composed loss against the workload's, then replays the
// step's GeMMs, collectives and kernels.
func (in *transformerInst) traced(spans bool) (float64, map[string]float64, error) {
	in.buildReplays()
	w, c := in.w, in.w.cfg
	chips := w.torus.Size()
	tr := newTracer(1 + chips)
	tr.off = !spans
	l := tr.lanes[0]

	t0 := time.Now()
	root := l.begin("step", noParent)
	inputs := make([]*tensor.Matrix, w.layers)
	cur := in.x
	for i, b := range in.stack.Blocks {
		inputs[i] = cur
		sp := l.begin("transformer.fwd", root)
		out, _, err := transformer.Forward(c, w.torus, b, cur)
		l.end(sp)
		if err != nil {
			return 0, nil, err
		}
		cur = out
	}
	dOut := cur.Clone()
	var loss float64
	for i := range dOut.Data {
		dOut.Data[i] -= in.target.Data[i]
		loss += dOut.Data[i] * dOut.Data[i]
	}
	n := float64(c.Tokens() * c.Hidden())
	loss /= n
	dOut.Scale(2 / n)
	for i := w.layers - 1; i >= 0; i-- {
		sp := l.begin("transformer.bwd", root)
		_, dx, err := transformer.Gradients(c, w.torus, in.stack.Blocks[i], inputs[i], dOut)
		l.end(sp)
		if err != nil {
			return 0, nil, err
		}
		dOut = dx
	}
	l.end(root)
	stepMS := ms(time.Since(t0))
	if err := lossMismatch("composed step", loss, in.loss); err != nil {
		return 0, nil, err
	}
	if !spans {
		return stepMS, nil, nil
	}
	self := selfByName(tr.spans())
	vals := map[string]float64{
		"transformer.fwd_ms":    self["transformer.fwd"] / float64(w.layers),
		"transformer.bwd_ms":    self["transformer.bwd"] / float64(w.layers),
		"gemm.overlap_fraction": in.overlap,
	}
	tr = newTracer(1 + chips)
	in.rep.m.ResetTraffic()
	runGemms(in.rep.m, tr, noParent, in.gemms, in.msCfg())
	trafficMetrics(in.rep.m, vals)
	gemmMetrics(tr.spans(), chips, vals)
	in.rep.run(vals)
	return stepMS, vals, nil
}

// mlpSpec is one minitrain.TrainDistributed step on a 4x4 mesh with the
// pipelined MeshSlice schedule.
type mlpSpec struct {
	cfg   minitrain.Config
	torus topology.Torus
}

var mlpWorkload = mlpSpec{
	cfg:   minitrain.Config{Batch: 64, In: 2048, Hidden: 256, Out: 64, LR: 0.05, S: 16, Block: 4, Pipelined: true},
	torus: topology.NewTorus(4, 4),
}

type mlpInst struct {
	w    mlpSpec
	seed int64
	data minitrain.Data
	ref  minitrain.Result // TrainSerial's step
	loss float64          // the workload step's loss

	// The step's kernel calls on every chip, and one chip's collectives.
	kernels []kernelCall
	colls   []collCall

	// Traced-run state, built on the first traced iteration.
	xs, ts, w1s, w2s []*tensor.Matrix
	rep              *replays
	overlap          float64
}

func newMLPInst(w mlpSpec, seed int64) (*mlpInst, error) {
	in := &mlpInst{w: w, seed: seed, data: minitrain.NewData(w.cfg, seed)}
	for _, p := range w.problems() {
		in.colls = append(in.colls, meshSliceCollectives(p, w.torus, w.cfg.S)...)
		for i := 0; i < w.torus.Size(); i++ {
			in.kernels = append(in.kernels, meshSliceKernels(p, w.torus, w.cfg.S)...)
		}
	}
	// The loss all-reduce, along the row and then down the column.
	in.colls = append(in.colls, collCall{"allreduce", true, 1, 1}, collCall{"allreduce", false, 1, 1})
	in.ref = minitrain.TrainSerial(w.cfg, in.data, 1, seed)
	res, err := in.run()
	if err != nil {
		return nil, err
	}
	in.loss = res.Losses[0]
	return in, nil
}

func (in *mlpInst) run() (minitrain.Result, error) {
	res, err := minitrain.TrainDistributed(in.w.cfg, in.w.torus, in.data, 1, in.seed)
	if err != nil {
		return res, err
	}
	if !res.W1.Equal(in.ref.W1, lossTol) || !res.W2.Equal(in.ref.W2, lossTol) {
		return res, fmt.Errorf("weights differ from TrainSerial by %g / %g", res.W1.MaxAbsDiff(in.ref.W1), res.W2.MaxAbsDiff(in.ref.W2))
	}
	return res, nil
}

// step runs one TrainDistributed step and checks its weights against
// TrainSerial's.
func (in *mlpInst) step() error {
	_, err := in.run()
	return err
}

func (in *mlpInst) flops() float64 { return kernelFLOPs(in.kernels) }

// problems lists the step's five distributed GeMMs in issue order.
func (w mlpSpec) problems() []gemm.Problem {
	c := w.cfg
	return []gemm.Problem{
		{M: c.Batch, N: c.Hidden, K: c.In, Dataflow: gemm.OS},
		{M: c.Batch, N: c.Out, K: c.Hidden, Dataflow: gemm.OS},
		{M: c.Hidden, N: c.Out, K: c.Batch, Dataflow: gemm.RS},
		{M: c.Batch, N: c.Hidden, K: c.Out, Dataflow: gemm.LS},
		{M: c.In, N: c.Hidden, K: c.Batch, Dataflow: gemm.RS},
	}
}

func (in *mlpInst) msCfg() gemm.MeshSliceConfig {
	c := in.w.cfg
	return gemm.MeshSliceConfig{S: c.S, Block: c.Block, Pipelined: c.Pipelined}
}

func (in *mlpInst) buildReplays() {
	if in.rep != nil {
		return
	}
	w, t := in.w, in.w.torus
	w1, w2 := minitrain.InitWeights(w.cfg, in.seed)
	in.xs = tensor.Partition(in.data.X, t.Rows, t.Cols)
	in.ts = tensor.Partition(in.data.T, t.Rows, t.Cols)
	in.w1s = tensor.Partition(w1, t.Rows, t.Cols)
	in.w2s = tensor.Partition(w2, t.Rows, t.Cols)
	rng := rand.New(rand.NewSource(1))
	in.rep = newReplays(t, in.kernels, nil, in.colls, w.cfg.Pipelined, rng)
	in.overlap = overlapFraction(t, newGemmCalls(w.problems(), t, rng), in.msCfg())
}

// traced composes TrainDistributed's step on the benchmark's mesh from
// the MeshSlice ChipFuncs, timing each chip's GeMM calls, and checks the
// composed loss against the workload's; then replays collectives and
// kernels.
func (in *mlpInst) traced(spans bool) (float64, map[string]float64, error) {
	in.buildReplays()
	c, t := in.w.cfg, in.w.torus
	chips := t.Size()
	cfg := in.msCfg()
	fwd, bwdData, bwdWeight := gemm.MeshSlice(gemm.OS, cfg), gemm.MeshSlice(gemm.LS, cfg), gemm.MeshSlice(gemm.RS, cfg)
	scale := 2 / float64(c.Batch*c.Out)
	tr := newTracer(1 + chips)
	tr.off = !spans
	var loss float64
	var mu sync.Mutex

	in.rep.m.ResetTraffic()
	t0 := time.Now()
	root := tr.lanes[0].begin("step", noParent)
	in.rep.m.Run(func(ch *mesh.Chip) {
		x, tt := in.xs[ch.Rank], in.ts[ch.Rank]
		w1, w2 := in.w1s[ch.Rank].Clone(), in.w2s[ch.Rank].Clone()
		h := timedGemm(tr, ch, root, gemm.OS, fwd, x, w1)
		hAct := relu(h)
		y := timedGemm(tr, ch, root, gemm.OS, fwd, hAct, w2)
		dy := y.Clone()
		for i := range dy.Data {
			dy.Data[i] -= tt.Data[i]
		}
		local := tensor.FromSlice(1, 1, []float64{sumSquares(dy)})
		rowSum := collective.AllReduce(ch.RowComm(), local)
		total := collective.AllReduce(ch.ColComm(), rowSum)
		if ch.Rank == 0 {
			mu.Lock()
			loss = total.At(0, 0) / float64(c.Batch*c.Out)
			mu.Unlock()
		}
		dy.Scale(scale)
		dW2 := timedGemm(tr, ch, root, gemm.RS, bwdWeight, hAct, dy)
		dH := timedGemm(tr, ch, root, gemm.LS, bwdData, dy, w2)
		maskInto(dH, h)
		dW1 := timedGemm(tr, ch, root, gemm.RS, bwdWeight, x, dH)
		dW1.Scale(c.LR)
		dW2.Scale(c.LR)
		subInto(w1, dW1)
		subInto(w2, dW2)
	})
	tr.lanes[0].end(root)
	stepMS := ms(time.Since(t0))
	if err := lossMismatch("composed step", loss, in.loss); err != nil {
		return 0, nil, err
	}
	if !spans {
		return stepMS, nil, nil
	}
	vals := map[string]float64{"gemm.overlap_fraction": in.overlap}
	trafficMetrics(in.rep.m, vals)
	gemmMetrics(tr.spans(), chips, vals)
	in.rep.run(vals)
	return stepMS, vals, nil
}
