package collective

import (
	"fmt"

	"meshslice/internal/tensor"
)

// Typed errors for the public API boundary. The ring primitives panic on
// caller mistakes, preserving SPMD fail-fast semantics, and the panic value
// is a typed error, so a caller that recovers it gets the diagnosis as
// structure rather than text.

// RingSizeError reports a block slice whose length does not match the ring.
type RingSizeError struct {
	Op     string // "reducescatter", "alltoall", ...
	Blocks int    // blocks supplied by the caller
	Ring   int    // ring size expected
}

func (e *RingSizeError) Error() string {
	return fmt.Sprintf("collective: %s got %d blocks for ring of %d", e.Op, e.Blocks, e.Ring)
}

// checkBlocks validates a one-block-per-position argument.
func checkBlocks(op string, blocks []*tensor.Matrix, ring int) error {
	if len(blocks) != ring {
		return &RingSizeError{Op: op, Blocks: len(blocks), Ring: ring} // lint:allow hotpath-alloc error construction on the failure path only
	}
	return nil
}
