package gemm

import (
	"fmt"

	"meshslice/internal/collective"
	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

// This file implements SUMMA (paper §2.3.3, Fig. 2a): a loop of P
// iterations, each broadcasting one panel of a flowing input along its ring
// (and, for LS/RS, reducing one output panel to its owner). P must be a
// common multiple of the mesh dimensions so every panel has a well-defined
// owner chip.

// SUMMAConfig parameterises SUMMA.
type SUMMAConfig struct {
	// Iterations is the panel count P; it must be a common multiple of the
	// mesh rows and columns. Zero selects lcm(Pr, Pc). The paper applies
	// loop unrolling to reduce SUMMA's iteration count when comparing
	// against MeshSlice (§4.2), which corresponds to choosing a smaller P.
	Iterations int
}

// DefaultSUMMAIterations is SUMMA's panel count when none is chosen:
// lcm(Pr, Pc), the fewest panels that give every panel an owner chip.
func DefaultSUMMAIterations(t topology.Torus) int { return lcm(t.Rows, t.Cols) }

// iterations resolves the panel count for the given torus.
func (cfg SUMMAConfig) iterations(t topology.Torus) (int, error) {
	p := cfg.Iterations
	if p == 0 {
		p = DefaultSUMMAIterations(t)
	}
	if p%t.Rows != 0 || p%t.Cols != 0 {
		return p, fmt.Errorf("gemm: SUMMA iterations %d not a common multiple of %v", p, t)
	}
	return p, nil
}

// Validate reports whether SUMMA with cfg can run the problem on the torus:
// the panelled dimension must split evenly into Iterations panels.
func (cfg SUMMAConfig) Validate(p Problem, t topology.Torus) error {
	if p.Dataflow < OS || p.Dataflow > RS {
		return fmt.Errorf("gemm: unknown dataflow %d", int(p.Dataflow))
	}
	iters, err := cfg.iterations(t)
	if err != nil {
		return err
	}
	if dim := p.sharedDim(); !divisible(dim, iters) {
		return fmt.Errorf("gemm: SUMMA panel dimension %d not divisible by %d iterations", dim, iters)
	}
	return nil
}

// SUMMA returns the ChipFunc for the SUMMA algorithm in the given dataflow.
func SUMMA(df Dataflow, cfg SUMMAConfig) ChipFunc {
	f := df.Flow()
	return func(c *mesh.Chip, aij, bij *tensor.Matrix) *tensor.Matrix {
		iters, err := cfg.iterations(torusOf(c))
		if err != nil {
			panic(err.Error())
		}
		return summa(c, df, f, iters, aij, bij)
	}
}

// summa runs SUMMA's loop on one chip. A moving matrix's panels are split
// evenly over its ring, iters/ring consecutive panels per chip, so panel p
// lives on ring position p/(iters/ring). For each panel p the owners
// broadcast the moving inputs' panels along their rings and every chip
// multiplies them: into C when the output is stationary, else into a
// partial product that is reduced to the chip owning output panel p.
func summa(c *mesh.Chip, df Dataflow, f Flow, iters int, aij, bij *tensor.Matrix) *tensor.Matrix {
	in := [2]*tensor.Matrix{aij, bij}
	moves := [2]Axis{f.A, f.B}
	// x holds the kernel operands: each moving input's broadcast panel,
	// or the stationary input itself.
	x := in
	t := torusOf(c)
	var shape [2][2]int
	for i, ax := range moves {
		shape[i][0], shape[i][1] = ax.scale(in[i].Rows, in[i].Cols, ax.Ring(t), iters)
	}
	pr, pc, _ := df.dims(shape[0][0], shape[0][1], shape[1][0], shape[1][1])
	cij := tensor.New(f.C.scale(pr, pc, iters, f.C.Ring(t)))
	partial := cij
	if f.C != Stationary {
		partial = tensor.New(pr, pc)
	}
	for p := 0; p < iters; p++ {
		c.SpanStart(recorder.OpGemmStep, p)
		for i, ax := range moves {
			if ax == Stationary {
				continue
			}
			ring := ax.comm(c)
			per := iters / ring.Size
			var panel *tensor.Matrix
			if ring.Pos == p/per {
				panel = ax.panel(in[i], p%per, per)
			}
			x[i] = collective.Broadcast(ring, p/per, panel)
		}
		if f.C != Stationary {
			partial.Zero()
		}
		df.accumulate(partial, x[0], x[1])
		if f.C != Stationary {
			ring := f.C.comm(c)
			per := iters / ring.Size
			if red := collective.Reduce(ring, p/per, partial); red != nil {
				f.C.setPanel(cij, red, p%per)
			}
		}
		c.SpanEnd(recorder.OpGemmStep)
	}
	return cij
}

func torusOf(c *mesh.Chip) topology.Torus {
	return topology.Torus{Rows: c.ColComm().Size, Cols: c.RowComm().Size}
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
