package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"meshslice/internal/autotune"
	"meshslice/internal/costmodel"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/obs"
	"meshslice/internal/sched"
	"meshslice/internal/serve"
	"meshslice/internal/topology"
	"meshslice/internal/train"
)

// simWorkload is one train.EvaluateFC call with MeshSlice and the
// autotuner's dataflow optimisation. The seed changes none of its inputs:
// the simulator is deterministic and its inputs are the model and chip.
type simWorkload struct {
	model model.Config
	chips int
	chip  hw.Chip
}

var gpt3Workload = simWorkload{model: model.GPT3(), chips: 64, chip: hw.TPUv4()}

type simInst struct {
	w      simWorkload
	tokens int
	opts   train.Options
	ref    train.FCResult
}

func newSimInst(w simWorkload) (*simInst, error) {
	in := &simInst{w: w, tokens: w.model.WeakScalingTokens(w.chips), opts: train.Options{OptimizeDataflow: true}}
	var err error
	if in.ref, err = in.evaluate(); err != nil {
		return nil, err
	}
	return in, in.step()
}

func (in *simInst) evaluate() (train.FCResult, error) {
	return train.EvaluateFC(in.w.model, in.tokens, in.w.chips, in.w.chip, train.MeshSliceAlgo, in.opts)
}

// step re-evaluates the block; every result must equal the first bit for bit.
func (in *simInst) step() error {
	r, err := in.evaluate()
	if err != nil {
		return err
	}
	if r != in.ref {
		return fmt.Errorf("EvaluateFC time %v on %v, first was %v on %v", r.Time, r.Shape, in.ref.Time, in.ref.Shape)
	}
	return nil
}

// flops is the simulated GeMM work of the block the step prices.
func (in *simInst) flops() float64 { return in.ref.FLOPs }

// traced replays EvaluateFC layer by layer: PlanModel, then per candidate
// shape and per pass TunePass, MeshSliceProgram and Simulate, folded the
// way train.EvaluateFC folds them. The replay must reproduce the
// workload's time and shape bit for bit.
func (in *simInst) traced(spans bool) (float64, map[string]float64, error) {
	reg := obs.NewRegistry()
	tr := newTracer(1)
	tr.off = !spans
	l := tr.lanes[0]
	chip := in.w.chip
	var ops, events, feasible, shapes int
	var errSum float64
	var errN int

	t0 := time.Now()
	root := l.begin("step", noParent)
	sp := l.begin("autotune.plan", root)
	plans := autotune.PlanModel(in.w.model, in.tokens, in.opts.OptimizeDataflow)
	l.end(sp)
	best := train.FCResult{Time: math.Inf(1)}
	for _, shape := range topology.MeshShapes2D(in.w.chips) {
		shapes++
		res := train.FCResult{Algo: train.MeshSliceAlgo, Shape: shape, Chips: in.w.chips}
		ok := true
	passes:
		for _, plan := range plans {
			for _, prob := range plan.Passes {
				if !shardable(prob, shape) {
					ok = false
					break passes
				}
				sp := l.begin("autotune.tunepass", root)
				pc, found := autotune.InstrumentedTunePass(prob, shape, chip, 0, reg)
				l.end(sp)
				if !found {
					ok = false
					break passes
				}
				s, est := pc.S, pc.Estimate
				if err := (gemm.MeshSliceConfig{S: s, Block: chip.SliceBlock}).Validate(prob, shape); err != nil {
					s = 1
					est = costmodel.MeshSlice(prob, shape, chip, s)
				}
				sp = l.begin("sched.build", root)
				prog := sched.MeshSliceProgram(prob, shape, chip, s)
				l.end(sp)
				ops += len(prog.Ops)
				sp = l.begin("netsim", root)
				sim := netsim.Simulate(prog, chip, in.opts.Sim)
				l.end(sp)
				events += sim.Events
				res.Time += sim.Makespan
				res.FLOPs += 2 * float64(prob.M) * float64(prob.N) * float64(prob.K)
				errSum += math.Abs(est.Total()-sim.Makespan) / sim.Makespan
				errN++
			}
		}
		if ok {
			feasible++
			if res.Time < best.Time {
				best = res
			}
		}
	}
	l.end(root)
	stepMS := ms(time.Since(t0))

	if best.Time != in.ref.Time || best.Shape != in.ref.Shape || best.FLOPs != in.ref.FLOPs { // lint:float-exact the replay must match bit for bit
		return 0, nil, fmt.Errorf("replay gives %v on %v, EvaluateFC gave %v on %v", best.Time, best.Shape, in.ref.Time, in.ref.Shape)
	}
	if !spans {
		return stepMS, nil, nil
	}
	self := selfByName(tr.spans())
	n := countByName(tr.spans())
	return stepMS, map[string]float64{
		"autotune.tunepass.calls":  float64(n["autotune.tunepass"]),
		"autotune.tunepass.ms":     self["autotune.tunepass"],
		"autotune.costmodel_calls": reg.Counter("autotune_costmodel_calls").Value(),
		"autotune.feasible_ratio":  float64(feasible) / float64(shapes),
		"costmodel.err_pct":        100 * errSum / float64(errN),
		"sched.build.calls":        float64(n["sched.build"]),
		"sched.build.ms":           self["sched.build"],
		"sched.ops":                float64(ops),
		"netsim.calls":             float64(n["netsim"]),
		"netsim.ms":                self["netsim"],
		"netsim.events":            float64(events),
		"netsim.events_per_s":      float64(events) / (self["netsim"] / 1e3),
		"sim_fc_ms":                best.Time * 1e3,
	}, nil
}

// shardable mirrors train's check that every operand and the output
// split evenly over the shape.
func shardable(p gemm.Problem, t topology.Torus) bool {
	aR, aC, bR, bC := p.OperandShapes()
	for _, d := range [][2]int{{aR, t.Rows}, {aC, t.Cols}, {bR, t.Rows}, {bC, t.Cols}, {p.M, t.Rows}, {p.N, t.Cols}} {
		if d[0]%d[1] != 0 {
			return false
		}
	}
	return true
}

// serveWorkload is one autotune.TuneServing call with the default SLO and
// the default policy grid over a seeded Poisson request trace. A run
// draws several traces from its seed and its steps take them in turn:
// the work of one trace follows its heavy-tailed prompt lengths, and the
// mix keeps a run's medians from following one draw.
type serveWorkload struct {
	model    model.Config
	chips    int
	chip     hw.Chip
	rate     float64
	requests int
	traces   int
}

var llamaServeWorkload = serveWorkload{model: model.Llama3_70B(), chips: 64, chip: hw.TPUv4(), rate: 20, requests: 512, traces: 8}

// The documented defaults of autotune.ServingOptions, which the traced
// replay walks in the tuner's nested order.
var (
	serveMaxBatches  = []int{16, 32, 64}
	serveChunkTokens = []int{256, 512}
	serveSliceCounts = []int{1, 4}
)

type serveInst struct {
	w       serveWorkload
	traces  [][]serve.Request
	refs    []autotune.ServingChoice // each trace's first choice
	next    int                      // the trace of the next step
	nextRep int                      // the trace of the next traced replay
}

func newServeInst(w serveWorkload, seed int64) (*serveInst, error) {
	in := &serveInst{w: w}
	for i := 0; i < w.traces; i++ {
		trace := serve.WorkloadSpec{Seed: seed*int64(w.traces) + int64(i), Rate: w.rate, Requests: w.requests}.Generate()
		if err := serve.ValidateTrace(trace); err != nil {
			return nil, err
		}
		ref, err := in.tune(trace)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, trace)
		in.refs = append(in.refs, ref)
	}
	return in, in.step()
}

func (in *serveInst) tune(trace []serve.Request) (autotune.ServingChoice, error) {
	return autotune.TuneServing(in.w.model, in.w.chips, in.w.chip, serve.SLO{}, trace, autotune.ServingOptions{})
}

// step re-tunes the next trace; every choice must equal that trace's
// first bit for bit.
func (in *serveInst) step() error {
	i := in.next
	in.next = (i + 1) % len(in.traces)
	c, err := in.tune(in.traces[i])
	if err != nil {
		return err
	}
	return sameServing(c.Shape, c.Policy, c.Report, in.refs[i])
}

func sameServing(shape topology.Torus, pol serve.Policy, rep *serve.Report, ref autotune.ServingChoice) error {
	r := ref.Report
	if shape != ref.Shape || pol != ref.Policy || rep.Goodput != r.Goodput || rep.MakespanS != r.MakespanS || // lint:float-exact deterministic results repeat bit for bit
		rep.Steps != r.Steps || rep.Preemptions != r.Preemptions || rep.SLOMet != r.SLOMet {
		return fmt.Errorf("serving choice %v %+v goodput %v, first was %v %+v goodput %v",
			shape, pol, rep.Goodput, ref.Shape, ref.Policy, r.Goodput)
	}
	return nil
}

// flops is the model's FC GeMM work for serving every token of a trace
// once, which the tuner prices for each candidate deployment; averaged
// over the run's traces.
func (in *serveInst) flops() float64 {
	var params float64
	for _, fc := range in.w.model.FCLayers() {
		params += float64(fc.InDim) * float64(fc.OutDim)
	}
	var tokens float64
	for _, tr := range in.traces {
		for _, r := range tr {
			tokens += float64(r.PromptTokens + r.OutputTokens)
		}
	}
	return 2 * params * float64(in.w.model.Layers) * tokens / float64(len(in.traces))
}

// traced replays TuneServing on the next trace: every candidate of the
// default grid through serve.Run on GOMAXPROCS strided workers, then the
// tuner's index-ordered strict-greater fold. It must reproduce the chosen
// shape, policy and goodput.
func (in *serveInst) traced(spans bool) (float64, map[string]float64, error) {
	ti := in.nextRep
	in.nextRep = (ti + 1) % len(in.traces)
	type cand struct {
		shape topology.Torus
		pol   serve.Policy
	}
	var cands []cand
	for _, shape := range topology.MeshShapes2D(in.w.chips) {
		for _, mb := range serveMaxBatches {
			for _, ct := range serveChunkTokens {
				for _, s := range serveSliceCounts {
					cands = append(cands, cand{shape, serve.Policy{MaxBatch: mb, ChunkTokens: ct, SliceCount: s}})
				}
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cands))
	tr := newTracer(workers + 1)
	tr.off = !spans
	reports := make([]*serve.Report, len(cands))

	t0 := time.Now()
	root := tr.lanes[0].begin("step", noParent)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l *lane, w int) {
			defer wg.Done()
			for i := w; i < len(cands); i += workers {
				sp := l.begin("serve.run", root)
				rep, err := serve.Run(serve.Config{
					Model: in.w.model, Chip: in.w.chip, Mesh: cands[i].shape, Policy: cands[i].pol,
					ClusterChips: in.w.chips,
				}, in.traces[ti])
				l.end(sp)
				if err == nil {
					reports[i] = rep
				}
			}
		}(tr.lanes[w+1], w)
	}
	wg.Wait()
	var best *serve.Report
	bestIdx, feasible, steps := -1, 0, 0
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		steps += rep.Steps
		if rep.Feasible {
			feasible++
			if best == nil || rep.Goodput > best.Goodput {
				best, bestIdx = rep, i
			}
		}
	}
	tr.lanes[0].end(root)
	stepMS := ms(time.Since(t0))

	if best == nil {
		return 0, nil, fmt.Errorf("replay found no feasible serving configuration")
	}
	if err := sameServing(cands[bestIdx].shape, cands[bestIdx].pol, best, in.refs[ti]); err != nil {
		return 0, nil, fmt.Errorf("replay: %w", err)
	}
	if !spans {
		return stepMS, nil, nil
	}
	runMS := selfByName(tr.spans())["serve.run"]
	return stepMS, map[string]float64{
		"serve.candidates":        float64(len(cands)),
		"serve.feasible_ratio":    float64(feasible) / float64(len(cands)),
		"serve.run_ms":            runMS,
		"serve.sched_steps":       float64(steps),
		"serve.us_per_sched_step": runMS * 1e3 / float64(steps),
		"serve.preemptions":       float64(best.Preemptions),
		"sim_goodput_rps":         best.Goodput,
	}, nil
}
