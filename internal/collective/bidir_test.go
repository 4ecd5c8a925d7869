package collective

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
)

func TestAllGatherBidirOrdering(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			local := tensor.FromSlice(1, 1, []float64{float64(cm.Pos)})
			got := AllGatherBidir(cm, local)
			if len(got) != p {
				t.Errorf("p=%d: returned %d shards", p, len(got))
				return
			}
			for i, s := range got {
				if s == nil {
					t.Errorf("p=%d pos=%d: shard %d missing", p, cm.Pos, i)
					continue
				}
				if s.At(0, 0) != float64(i) {
					t.Errorf("p=%d pos=%d: shard %d = %v", p, cm.Pos, i, s.At(0, 0))
				}
			}
		})
	}
}

func TestReduceScatterBidirSums(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			blocks := make([]*tensor.Matrix, p)
			for d := 0; d < p; d++ {
				blocks[d] = tensor.FromSlice(1, 1, []float64{float64(100*cm.Pos + d)})
			}
			got := ReduceScatterBidir(cm, blocks)
			want := 0.0
			for i := 0; i < p; i++ {
				want += float64(100*i + cm.Pos)
			}
			if got.At(0, 0) != want {
				t.Errorf("p=%d pos=%d: got %v, want %v", p, cm.Pos, got.At(0, 0), want)
			}
		})
	}
}

// Property: the bidirectional variants agree exactly with the
// unidirectional ones for random ring sizes and shard contents.
func TestBidirEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	f := func(p8, rows8 uint8) bool {
		p := int(p8%7) + 1
		rows := (int(rows8%3) + 1) * p
		global := tensor.Random(rows, 2, rng)
		strips := tensor.SplitRows(global, p)
		ok := true
		var mu sync.Mutex
		runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
			uni := AllGatherRows(cm, strips[cm.Pos])
			bi := tensor.ConcatRows(AllGatherBidir(cm, strips[cm.Pos]))
			rsUni := ReduceScatterRows(cm, global)
			rsBi := ReduceScatterBidir(cm, tensor.SplitRows(global, p))
			if !bi.Equal(uni, 1e-12) || !rsBi.Equal(rsUni, 1e-9) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReduceScatterBidirDoesNotMutateInputs(t *testing.T) {
	runRow(4, func(c *mesh.Chip, cm *mesh.Comm) {
		blocks := make([]*tensor.Matrix, 4)
		for d := range blocks {
			blocks[d] = tensor.FromSlice(1, 1, []float64{7})
		}
		ReduceScatterBidir(cm, blocks)
		for d, b := range blocks {
			if b.At(0, 0) != 7 {
				t.Errorf("pos %d: block %d mutated to %v", cm.Pos, d, b.At(0, 0))
			}
		}
	})
}

func TestReduceScatterBidirWrongCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	runRow(2, func(c *mesh.Chip, cm *mesh.Comm) {
		ReduceScatterBidir(cm, make([]*tensor.Matrix, 3))
	})
}

// Bidirectional rings halve the number of synchronised steps: the message
// count per chip drops from 2(P-1) one-way sends to the same total but the
// critical path (max stream length) is ⌈(P-1)/2⌉.
func TestBidirStreamLengths(t *testing.T) {
	// Verified indirectly: on a ring of 8, the unidirectional AG needs 7
	// sequential receives per chip; the bidirectional one needs 4 per
	// stream. Message totals are equal (every shard still crosses every
	// hop of its half-ring).
	const p = 8
	m := mesh.New(ringTopo(p))
	m.Run(func(c *mesh.Chip) {
		AllGather(c.RowComm(), tensor.New(1, 1))
	})
	uni := m.Traffic().Messages
	m2 := mesh.New(ringTopo(p))
	m2.Run(func(c *mesh.Chip) {
		AllGatherBidir(c.RowComm(), tensor.New(1, 1))
	})
	bi := m2.Traffic().Messages
	if uni != int64(p*(p-1)) {
		t.Errorf("unidirectional messages = %d, want %d", uni, p*(p-1))
	}
	if bi != uni {
		t.Errorf("bidirectional moves %d messages, want the same %d (same volume, shorter critical path)", bi, uni)
	}
}

func TestReduceScatterColsBidir(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(55))
	contribs := make([]*tensor.Matrix, p)
	total := tensor.New(2, p*2)
	for i := range contribs {
		contribs[i] = tensor.Random(2, p*2, rng)
		total.Add(contribs[i])
	}
	want := tensor.SplitCols(total, p)
	runRow(p, func(c *mesh.Chip, cm *mesh.Comm) {
		got := ReduceScatterBidir(cm, tensor.SplitCols(contribs[cm.Pos], p))
		if !got.Equal(want[cm.Pos], 1e-9) {
			t.Errorf("pos %d mismatch", cm.Pos)
		}
	})
}
