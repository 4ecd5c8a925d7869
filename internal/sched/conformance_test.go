package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/mesh"
	"meshslice/internal/obs"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/sched"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// TestFunctionalRunMatchesProgram checks the two interpreters of each flow
// row against each other. A functional run of MeshSlice (S=1 and S=2),
// Collective 2D and Wang must send, per chip and direction, exactly the
// bytes its sched program puts on that direction's wire, and in pipelined
// mode (where every comm op runs under its own span) the comm op kinds on
// each direction must be the program's.
func TestFunctionalRunMatchesProgram(t *testing.T) {
	chip := hw.TPUv4()
	cases := []struct {
		name, alg string
		opts      gemm.AlgOptions
		build     func(p gemm.Problem, tor topology.Torus) *sched.Program
	}{
		{"MeshSlice S=1", "MeshSlice", gemm.AlgOptions{S: 1, Block: 2}, func(p gemm.Problem, tor topology.Torus) *sched.Program {
			return sched.MeshSliceProgram(p, tor, chip, 1)
		}},
		{"MeshSlice S=2", "MeshSlice", gemm.AlgOptions{S: 2, Block: 2}, func(p gemm.Problem, tor topology.Torus) *sched.Program {
			return sched.MeshSliceProgram(p, tor, chip, 2)
		}},
		{"Collective", "Collective", gemm.AlgOptions{}, func(p gemm.Problem, tor topology.Torus) *sched.Program {
			return sched.CollectiveProgram(p, tor, chip)
		}},
		{"Wang", "Wang", gemm.AlgOptions{}, func(p gemm.Problem, tor topology.Torus) *sched.Program {
			return sched.WangProgram(p, tor, chip, 0)
		}},
	}
	meshes := []topology.Torus{topology.NewTorus(2, 2), topology.NewTorus(2, 4), topology.NewTorus(4, 2)}
	dirs := []topology.Direction{topology.InterRow, topology.InterCol}
	for _, tc := range cases {
		alg, ok := gemm.AlgorithmByName(tc.alg)
		if !ok {
			t.Fatalf("%s missing from the registry", tc.alg)
		}
		for _, tor := range meshes {
			for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
				p := gemm.Problem{M: 64, N: 128, K: 32, Dataflow: df}
				if err := alg.Validate(p, tor, tc.opts); err != nil {
					t.Fatalf("%s %v on %v: %v", tc.alg, df, tor, err)
				}
				prog := tc.build(p, tor)
				for _, pipelined := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%dx%d/pipelined=%v", tc.name, df, tor.Rows, tor.Cols, pipelined)
					opts := tc.opts
					opts.Pipelined = pipelined
					m, reg, rec := functionalRun(p, tor, alg.Build(df, opts))
					for r := 0; r < tor.Size(); r++ {
						for _, d := range dirs {
							var elems float64
							for _, peer := range prog.RingMembers(r, d) {
								if peer != r {
									elems += reg.Gauge("mesh_edge_elements",
										obs.L("from", obs.PadInt(r, tor.Size())),
										obs.L("to", obs.PadInt(peer, tor.Size()))).Value()
								}
							}
							got, want := elems*chip.BytesPerElement, prog.CommBytesOnWire(d)
							if math.Abs(got-want) > 1e-9*want {
								t.Errorf("%s: chip %d sent %v bytes %v, program puts %v on the wire", name, r, d, got, want)
							}
							if pipelined {
								if got, want := sentKinds(m.Torus, rec, r, d), programKinds(prog, d); got != want {
									t.Errorf("%s: chip %d %v comm kinds %q, program %q", name, r, d, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// functionalRun multiplies random operands with fn on a fresh mesh that
// counts traffic and records events.
func functionalRun(p gemm.Problem, tor topology.Torus, fn gemm.ChipFunc) (*mesh.Mesh, *obs.Registry, *recorder.Recorder) {
	m := mesh.New(tor)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	rec := recorder.New(tor.Size(), 1<<12)
	m.SetRecorder(rec)
	aR, aC, bR, bC := p.OperandShapes()
	rng := rand.New(rand.NewSource(21))
	gemm.MultiplyOn(m, fn, tensor.Random(aR, aC, rng), tensor.Random(bR, bC, rng))
	m.PublishMetrics()
	return m, reg, rec
}

// sentKinds lists, sorted, the ops of the spans chip r's sends in direction
// d ran under.
func sentKinds(tor topology.Torus, rec *recorder.Recorder, r int, d topology.Direction) string {
	kinds := map[string]bool{}
	for _, l := range rec.Snapshot().Logs {
		if l.Chip != r {
			continue
		}
		for _, e := range l.Events {
			if e.Kind == "send" && direction(tor, r, e.Peer) == d {
				kinds[e.Op] = true
			}
		}
	}
	return sortedKeys(kinds)
}

// direction returns the direction of the link between ring neighbours from
// and to: chips in one mesh row talk InterCol, chips in one column
// InterRow.
func direction(tor topology.Torus, from, to int) topology.Direction {
	if tor.Coord(from).Row == tor.Coord(to).Row {
		return topology.InterCol
	}
	return topology.InterRow
}

// programKinds lists, sorted, the kinds of the program's comm ops in
// direction d.
func programKinds(p *sched.Program, d topology.Direction) string {
	kinds := map[string]bool{}
	for _, op := range p.Ops {
		if op.Kind.IsComm() && op.Dir == d {
			kinds[op.Kind.String()] = true
		}
	}
	return sortedKeys(kinds)
}

func sortedKeys(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
