// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop with one client (the next step starts
// when the previous one returns), checks every step's output against a
// reference computed at set-up, and prints one JSON result line:
//
//	go build -o e2ebench . && ./e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --workload all runs every workload in turn in one process.
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a separate
// traced run, which replays the step through the public functions of each
// layer, alternately with and without spans.
// The lines before the result describe the host, the workload and every
// metric's unit and target.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// instance is one workload set up from its seed.
type instance interface {
	// step runs one step of the workload and checks its output against
	// the reference computed at set-up.
	step() error
	// flops is the model GeMM work of one step, in FLOPs.
	flops() float64
	// traced runs one traced iteration: the step composed from the
	// layers' public functions with spans around each call, then the
	// per-layer replays. It returns the composed step's duration and the
	// iteration's per-layer values, and an error when a replay does not
	// reproduce the workload's result. With spans false it composes and
	// checks the same step without recording spans, and returns no values.
	traced(spans bool) (stepMS float64, vals map[string]float64, err error)
}

type workload struct {
	name, why string
	setup     func(seed int64) (instance, error)
}

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median.
const setupRepeats = 9

// maxRunSeconds caps a run that needs longer than --seconds to collect
// enough samples for its tail percentile.
const maxRunSeconds = 120

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all to run every workload in turn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	ws := workloads
	if *name != "all" {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []workload{*w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	for i := range ws {
		w := &ws[i]
		res, extras, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
		for _, v := range []any{map[string]any{"env": environment(*seed), "workload": w.name, "why": w.why}, map[string]any{"info": extras}, res} {
			b, err := json.Marshal(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			fmt.Println(string(b))
		}
	}
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run resets the process's peak-RSS mark, sets the workload up, then
// measures it for d. The extras map holds what the result line has no
// room for: the failure ratio, the sample count and, in the traced run,
// each per-layer metric's target.
func run(w *workload, seed int64, d time.Duration, traced bool) (result, map[string]any, error) {
	rssReset := resetPeakRSS()
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var res result
	var extras map[string]any
	var err error
	if traced {
		res, extras, err = runTraced(w, inst, d)
	} else {
		res, extras, err = runTimed(inst, setups, d)
	}
	if extras != nil {
		extras["peak_rss_reset"] = rssReset
	}
	return res, extras, err
}

// runTimed is the untraced closed loop that yields the end-to-end metrics.
func runTimed(inst instance, setups []float64, d time.Duration) (result, map[string]any, error) {
	p90min := minSamples(0.9)
	var steps []float64
	failed := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < d || (len(steps) < p90min && time.Since(start) < maxRunSeconds*time.Second) {
		t0 := time.Now()
		err := inst.step()
		steps = append(steps, ms(time.Since(t0)))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "step %d: %v\n", len(steps), err)
		}
	}
	runtime.ReadMemStats(&after)
	n := len(steps)
	if beyond(n, 0.9) < tailSamples {
		return result{}, nil, fmt.Errorf("only %d steps in %v: p90 needs %d", n, maxRunSeconds*time.Second, p90min)
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"step_ms.p50":     percentile(steps, 0.5),
		"step_ms.p90":     percentile(steps, 0.9),
		"gflop_per_s":     inst.flops() / percentile(steps, 0.5) / 1e6,
		"allocs_per_step": float64(after.Mallocs-before.Mallocs) / float64(n),
		"peak_rss_mb":     peakRSSMB(),
	}
	res := result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, map[string]any{
		"failed_ratio":  float64(failed) / float64(n),
		"step_samples":  n,
		"p90_beyond":    beyond(n, 0.9),
		"setup_samples": len(setups),
	}, nil
}

// runTraced alternates the composed step without spans with traced
// iterations for d and reports each per-layer metric as its median over
// the iterations. trace.overhead_pct compares the composed step's median
// with spans against its median without.
func runTraced(w *workload, inst instance, d time.Duration) (result, map[string]any, error) {
	var plain, tracedMS []float64
	perMetric := map[string][]float64{}
	attempted, failed := 0, 0
	start := time.Now()
	for time.Since(start) < d || (len(tracedMS) < 3 && time.Since(start) < maxRunSeconds*time.Second) {
		for _, spans := range []bool{false, true} {
			stepMS, vals, err := inst.traced(spans)
			attempted++
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "composed step %d (spans %v): %v\n", attempted, spans, err)
				continue
			}
			if !spans {
				plain = append(plain, stepMS)
				continue
			}
			tracedMS = append(tracedMS, stepMS)
			for k, v := range vals {
				perMetric[k] = append(perMetric[k], v)
			}
		}
	}
	if len(tracedMS) > 0 && len(plain) > 0 {
		perMetric["trace.overhead_pct"] = []float64{(median(tracedMS)/median(plain) - 1) * 100}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	targets := map[string]string{}
	var unmeasured []string
	for _, m := range perLayer {
		v := 0.0
		if xs, ok := perMetric[m.name]; ok {
			v = median(xs)
		} else {
			unmeasured = append(unmeasured, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		if m.workload == w.name || m.workload == "functional" && isFunctional(w.name) || m.workload == "all" {
			targets[m.name] = m.target
		}
	}
	for k := range perMetric {
		if !isPerLayer(k) {
			return result{}, nil, fmt.Errorf("workload reported undeclared per-layer metric %q", k)
		}
	}
	sort.Strings(unmeasured)
	return res, map[string]any{
		"failed_ratio":         float64(failed) / float64(attempted),
		"traced_iterations":    len(tracedMS),
		"untraced_iterations":  len(plain),
		"targets":              targets,
		"not_on_this_workload": unmeasured,
	}, nil
}
