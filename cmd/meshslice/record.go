package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"

	"meshslice/internal/fault"
	"meshslice/internal/gemm"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// cmdRecord runs one distributed GeMM functionally with the flight
// recorder attached and exports the causal event log: canonical JSON (-o)
// and/or a Perfetto trace with per-chip spans and message-flow arrows
// (-chrome). With injected faults (-drop, -fail) the run dies with the
// typed error and the forensics dump prints instead — the post-mortem view
// of which chip was stuck where.
func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var cfg recordConfig
	fs.IntVar(&cfg.m, "m", 64, "result rows M")
	fs.IntVar(&cfg.n, "n", 64, "result cols N")
	fs.IntVar(&cfg.k, "k", 64, "inner dimension K")
	fs.IntVar(&cfg.rows, "rows", 4, "mesh rows")
	fs.IntVar(&cfg.cols, "cols", 4, "mesh cols")
	fs.StringVar(&cfg.algo, "algo", "meshslice", "algorithm: meshslice, collective, summa, cannon, or wang")
	fs.StringVar(&cfg.dataflow, "dataflow", "os", "dataflow: os, ls, or rs")
	fs.IntVar(&cfg.s, "s", 2, "MeshSlice slice count")
	fs.IntVar(&cfg.block, "block", 2, "MeshSlice block size")
	fs.BoolVar(&cfg.pipelined, "pipelined", false, "run the double-buffered overlapped schedule (MeshSlice, Wang); the trace then shows comm lanes under compute spans")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.capacity, "cap", 0, "per-chip event-ring capacity (0 = default)")
	out := fs.String("o", "", "write canonical recorder JSON here")
	chrome := fs.String("chrome", "", "write Perfetto/Chrome trace here")
	fs.StringVar(&cfg.drop, "drop", "", "inject a lost message: from:to:nth (repeatable, comma-separated)")
	fs.StringVar(&cfg.fail, "fail", "", "inject a chip fail-stop: chip:afterSends")
	fs.Parse(args)

	res, err := runRecord(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if res.runErr != nil {
		fmt.Fprintf(os.Stderr, "run died: %v\n", res.runErr)
		switch e := res.runErr.(type) {
		case *mesh.RecvStallError:
			fmt.Fprint(os.Stderr, e.Dump)
		case *mesh.ChipFailedError:
			fmt.Fprint(os.Stderr, e.Dump)
		}
		writeExports(res.rec, *out, *chrome, res.alg, res.df)
		os.Exit(1)
	}
	fmt.Println(res.summary)
	writeExports(res.rec, *out, *chrome, res.alg, res.df)
	if !res.ok {
		os.Exit(1)
	}
}

// recordConfig is one `meshslice record` invocation, minus its outputs.
type recordConfig struct {
	m, n, k, rows, cols int
	algo, dataflow      string
	s, block            int
	pipelined           bool
	seed                int64
	capacity            int
	drop, fail          string
}

// recordResult is what a record run left behind.
type recordResult struct {
	alg string
	df  gemm.Dataflow
	rec *recorder.Recorder
	// runErr is the typed error of a run that died (a stall or a chip
	// failure); the remaining fields are set only when it is nil.
	runErr  error
	ok      bool // result within 1e-9 of the reference
	summary string
}

// runRecord validates cfg and runs its GeMM on a recorded mesh. It returns
// an error for an invalid invocation; a run that dies reports through
// recordResult.runErr instead.
func runRecord(cfg recordConfig) (*recordResult, error) {
	df, ok := dataflowByName(cfg.dataflow)
	if !ok {
		return nil, fmt.Errorf("unknown dataflow %q", cfg.dataflow)
	}
	alg, ok := gemm.AlgorithmByName(cfg.algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", cfg.algo)
	}
	if !alg.Supports(df) {
		return nil, fmt.Errorf("%s does not implement the %v dataflow", alg.Name, df)
	}
	p := gemm.Problem{M: cfg.m, N: cfg.n, K: cfg.k, Dataflow: df}
	tor := topology.NewTorus(cfg.rows, cfg.cols)
	opts := gemm.AlgOptions{S: cfg.s, Block: cfg.block, Pipelined: cfg.pipelined}
	if err := alg.Validate(p, tor, opts); err != nil {
		return nil, err
	}

	var faults fault.MeshFaults
	for _, spec := range splitNonEmpty(cfg.drop) {
		from, to, nth, err := parseTriple(spec)
		if err != nil {
			return nil, fmt.Errorf("bad -drop %q: %v", spec, err)
		}
		faults.Drops = append(faults.Drops, fault.EdgeDrop{From: from, To: to, Nth: nth})
	}
	if cfg.fail != "" {
		chip, after, err := parsePair(cfg.fail)
		if err != nil {
			return nil, fmt.Errorf("bad -fail %q: %v", cfg.fail, err)
		}
		faults.ChipFails = append(faults.ChipFails, fault.MeshChipFail{Chip: chip, AfterSends: after})
	}
	mh := mesh.New(tor)
	res := &recordResult{alg: alg.Name, df: df, rec: recorder.New(tor.Size(), cfg.capacity)}
	mh.SetRecorder(res.rec)
	if !faults.Empty() {
		mh.SetFaults(faults)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	aR, aC, bR, bC := p.OperandShapes()
	a := tensor.Random(aR, aC, rng)
	b := tensor.Random(bR, bC, rng)
	as := tensor.Partition(a, tor.Rows, tor.Cols)
	bs := tensor.Partition(b, tor.Rows, tor.Cols)
	fn := alg.Build(df, opts)

	shards := make([]*tensor.Matrix, tor.Size())
	var mu sync.Mutex
	res.runErr = mh.RunE(func(c *mesh.Chip) {
		out := fn(c, as[c.Rank], bs[c.Rank])
		mu.Lock()
		shards[c.Rank] = out
		mu.Unlock()
	})
	if res.runErr != nil {
		return res, nil
	}

	got := tensor.Assemble(shards, tor.Rows, tor.Cols)
	diff := got.MaxAbsDiff(p.Reference(a, b))
	res.ok = diff <= 1e-9
	status := "ok"
	if !res.ok {
		status = "FAILED"
	}
	events := uint64(0)
	for _, l := range res.rec.Snapshot().Logs {
		events += l.Recorded
	}
	ov := res.rec.Overlap()
	res.summary = fmt.Sprintf("%s %v on %v: %s (max |Δ| %.2e), %d events across %d chips, overlap %d/%d async ops (%.2f)",
		alg.Name, df, tor, status, diff, events, tor.Size(), ov.Overlapped, ov.AsyncOps, ov.Fraction)
	return res, nil
}

// writeExports writes the canonical JSON and/or Perfetto trace.
func writeExports(rec *recorder.Recorder, jsonPath, chromePath, algo string, df gemm.Dataflow) {
	label := fmt.Sprintf("%s %v", algo, df)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := recorder.WriteMeshChromeTrace(f, rec.Snapshot(), label); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
}

func dataflowByName(name string) (gemm.Dataflow, bool) {
	switch strings.ToLower(name) {
	case "os":
		return gemm.OS, true
	case "ls":
		return gemm.LS, true
	case "rs":
		return gemm.RS, true
	}
	return 0, false
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parseTriple(s string) (int, int, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want from:to:nth")
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, 0, 0, err
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}

func parsePair(s string) (int, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want chip:afterSends")
	}
	a, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
