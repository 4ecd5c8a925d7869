package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"meshslice/internal/hw"
	"meshslice/internal/minitrain"
	"meshslice/internal/model"
	"meshslice/internal/topology"
	"meshslice/internal/transformer"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
	if beyond(99, 0.9) >= tailSamples || beyond(100, 0.9) != tailSamples {
		t.Errorf("beyond(99) = %d, beyond(100) = %d", beyond(99, 0.9), beyond(100, 0.9))
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, parent: noParent, name: "step", start: 0, end: 10 * ms},
		// Two overlapping children on different lanes cover [1, 5).
		{id: 2, parent: 1, name: "a", lane: 1, start: 1 * ms, end: 3 * ms},
		{id: 3, parent: 1, name: "a", lane: 2, start: 2 * ms, end: 5 * ms},
		// A child running past its parent counts only inside it: [8, 10).
		{id: 4, parent: 1, name: "b", start: 8 * ms, end: 12 * ms},
		// A grandchild is not a child of the root.
		{id: 5, parent: 2, name: "c", lane: 1, start: 1 * ms, end: 2 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[spanID]time.Duration{1: 4 * ms, 2: 1 * ms, 3: 3 * ms, 4: 4 * ms, 5: 1 * ms} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 4 || byName["step"] != 4 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerLanesNest(t *testing.T) {
	tr := newTracer(2)
	root := tr.lanes[0].begin("root", noParent)
	child := tr.lanes[1].begin("child", root)
	time.Sleep(time.Millisecond)
	tr.lanes[1].end(child)
	tr.lanes[0].end(root)
	spans := tr.spans()
	if len(spans) != 2 || spans[1].parent != root || spans[1].lane != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if self[root] < 0 || self[root] >= spans[0].end-spans[0].start {
		t.Errorf("root self time %v not reduced by its child", self[root])
	}
}

// Small versions of the two functional workloads, for the tests.
var (
	tinyTransformer = transformerSpec{
		cfg:    transformer.Config{Batch: 2, Seq: 4, Heads: 2, HeadDim: 4, FFHidden: 8, S: 2, Block: 1},
		layers: 2,
		torus:  topology.NewTorus(2, 2),
		lr:     0.02,
	}
	tinyMLP = mlpSpec{
		cfg:   minitrain.Config{Batch: 8, In: 16, Hidden: 8, Out: 4, LR: 0.05, S: 2, Block: 1, Pipelined: true},
		torus: topology.NewTorus(2, 2),
	}
	tinyServe = serveWorkload{model: model.Llama3_70B(), chips: 16, chip: hw.TPUv4(), rate: 20, requests: 16, traces: 2}
)

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	mlp, err := newMLPInst(tinyMLP, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTransformerInst(tinyTransformer, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServeInst(tinyServe, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, inst := range map[string]instance{"mlp": mlp, "transformer": tr, "serve": srv} {
		res, extras, err := runTimed(inst, []float64{1}, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || extras["failed_ratio"] != 0.0 {
			t.Errorf("%s: clean reference gave %d/%d failed", name, res.Failed, res.Attempted)
		}
	}

	mlp.ref.W1.Data[0] += 1e-6
	tr.ref.Losses[0] += 1e-6
	srv.refs[1].Report.Goodput *= 1.5
	for name, c := range map[string]struct {
		inst instance
		want float64
	}{"mlp": {mlp, 1}, "transformer": {tr, 1}, "serve": {srv, 0.5}} {
		res, extras, err := runTimed(c.inst, []float64{1}, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || extras["failed_ratio"] != c.want {
			t.Errorf("%s: corrupted reference gave failed_ratio %v (%d/%d), want %v",
				name, extras["failed_ratio"], res.Failed, res.Attempted, c.want)
		}
	}
}

func TestTracedReplaysReproduceTheWorkload(t *testing.T) {
	mlp, err := newMLPInst(tinyMLP, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTransformerInst(tinyTransformer, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServeInst(tinyServe, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newSimInst(simWorkload{model: model.GPT3(), chips: 16, chip: hw.TPUv4()})
	if err != nil {
		t.Fatal(err)
	}
	for name, inst := range map[string]instance{"mlp": mlp, "transformer": tr, "serve": srv, "sim": sim} {
		_, vals, err := inst.traced(true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range vals {
			if !isPerLayer(k) {
				t.Errorf("%s: undeclared metric %q", name, k)
			}
		}
		// Without spans the same step is composed and checked.
		if _, vals, err := inst.traced(false); err != nil || vals != nil {
			t.Errorf("%s without spans: %v, values %v", name, err, vals)
		}
	}

	// A replay that no longer reproduces the workload is a failure.
	sim.ref.Time *= 1.5
	mlp.loss += 1e-6
	for _, spans := range []bool{true, false} {
		if _, _, err := sim.traced(spans); err == nil {
			t.Errorf("sim replay (spans %v) accepted a reference it does not reproduce", spans)
		}
		if _, _, err := mlp.traced(spans); err == nil {
			t.Errorf("mlp composed step (spans %v) accepted a loss it does not reproduce", spans)
		}
	}
}

func TestOffTracerRecordsNothing(t *testing.T) {
	tr := newTracer(2)
	tr.off = true
	l := tr.lanes[1]
	sp := l.begin("child", l.begin("root", noParent))
	l.end(sp)
	if sp != noParent || len(tr.spans()) != 0 {
		t.Errorf("off tracer returned span %d and recorded %d spans", sp, len(tr.spans()))
	}
}

// heldInst is a workload whose set-up keeps mb MB resident.
type heldInst struct{ buf []byte }

func (h *heldInst) step() error    { return nil }
func (h *heldInst) flops() float64 { return 1 }
func (h *heldInst) traced(bool) (float64, map[string]float64, error) {
	return 1, nil, nil
}

func TestPeakRSSIsPerWorkload(t *testing.T) {
	if !resetPeakRSS() {
		t.Skip("the kernel does not reset the peak-RSS mark")
	}
	peak := func(mb int) float64 {
		w := workload{name: "held", setup: func(int64) (instance, error) {
			buf := make([]byte, mb<<20)
			for i := 0; i < len(buf); i += 4096 {
				buf[i] = 1
			}
			return &heldInst{buf}, nil
		}}
		res, _, err := run(&w, 1, time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["peak_rss_mb"].Value
	}
	big := peak(48)
	small := peak(1)
	if small > big-24 {
		t.Errorf("a 1 MB workload after a 48 MB one reports peak %.1f MB, the 48 MB one %.1f MB", small, big)
	}
}

func TestOverlapReadsZeroOnSerialSchedule(t *testing.T) {
	tr, err := newTransformerInst(tinyTransformer, 1)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := newMLPInst(tinyMLP, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, tv, err := tr.traced(true)
	if err != nil {
		t.Fatal(err)
	}
	_, mv, err := mlp.traced(true)
	if err != nil {
		t.Fatal(err)
	}
	if tv["gemm.overlap_fraction"] != 0 || mv["gemm.overlap_fraction"] <= 0 {
		t.Errorf("overlap: serial %v, pipelined %v", tv["gemm.overlap_fraction"], mv["gemm.overlap_fraction"])
	}
	// The traffic of the tiny MLP step is exact, so it repeats.
	_, mv2, err := mlp.traced(true)
	if err != nil {
		t.Fatal(err)
	}
	if mv["mesh.msgs_per_step"] != mv2["mesh.msgs_per_step"] || mv["mesh.msgs_per_step"] == 0 {
		t.Errorf("msgs per step %v then %v", mv["mesh.msgs_per_step"], mv2["mesh.msgs_per_step"])
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q in BENCHMARK.json, %q / %q here", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
