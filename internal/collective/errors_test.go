package collective

import (
	"errors"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func unit(v float64) *tensor.Matrix {
	m := tensor.New(1, 1)
	m.Set(0, 0, v)
	return m
}

// TestRingSizeErrorValue: a wrong block count panics with a typed
// *RingSizeError naming the collective, before any communication, so every
// chip fails uniformly and nothing deadlocks.
func TestRingSizeErrorValue(t *testing.T) {
	for _, tc := range []struct {
		op  string
		run func(cm *mesh.Comm)
	}{
		{"reducescatter", func(cm *mesh.Comm) { ReduceScatter(cm, []*tensor.Matrix{unit(1), unit(2)}) }},
		{"alltoall", func(cm *mesh.Comm) { AllToAll(cm, []*tensor.Matrix{unit(1)}) }},
		{"reducescatter-bidir", func(cm *mesh.Comm) { ReduceScatterBidir(cm, nil) }},
	} {
		var got any
		mesh.New(topology.NewTorus(1, 4)).Run(func(c *mesh.Chip) {
			defer func() {
				if r := recover(); c.Rank == 0 {
					got = r
				}
			}()
			tc.run(c.RowComm())
		})
		err, _ := got.(error)
		var rse *RingSizeError
		if !errors.As(err, &rse) {
			t.Fatalf("%s: panicked with %T (%v), want *RingSizeError", tc.op, got, got)
		}
		if rse.Op != tc.op || rse.Ring != 4 {
			t.Errorf("%s: diagnosis %+v", tc.op, rse)
		}
	}
}

func TestPanicVariantPanicsWithTypedError(t *testing.T) {
	// The legacy panic path now carries the typed error as its value, so
	// recover-based callers get structure too. Trigger on one chip only is
	// not safe (the others would hang) — all chips pass the same bad slice,
	// and mesh.Run converts the first chip panic into its own message.
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("mismatched blocks did not panic")
		}
	}()
	mesh.New(topology.NewTorus(1, 4)).Run(func(c *mesh.Chip) {
		ReduceScatter(c.RowComm(), []*tensor.Matrix{unit(1)})
	})
}
