package gemm

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/obs/recorder"
	"meshslice/internal/topology"
)

// pinnedMesh is one mesh shape of the pinned-behaviour table with the
// slicing options every algorithm runs at on it.
type pinnedMesh struct {
	rows, cols int
	opts       AlgOptions
}

var pinnedMeshes = []pinnedMesh{
	{2, 2, AlgOptions{S: 2, Block: 2}},
	{2, 4, AlgOptions{S: 2, Block: 2}},
	{4, 4, AlgOptions{S: 4, Block: 2}},
}

// pinnedDigest fingerprints one run: Result hashes the assembled result's
// float64 bits, Wire hashes every directed edge's ordered message stream
// (send shapes on the sender, recv shapes on the receiver).
type pinnedDigest struct{ Result, Wire uint64 }

// pinnedDigests records, for every registry algorithm × dataflow × mode ×
// mesh, the result bits and per-edge message streams of the schedules as
// they stood when each dataflow was still written out separately (serial,
// pipelined and Collective 2D copies). It is the bit-exact reference the
// single sliced loop must keep reproducing. Key: "Alg/DF/mode/RxC".
var pinnedDigests = map[string]pinnedDigest{
	"MeshSlice/OS/serial/2x2":     {0xad08b88f95066e77, 0x3dcc2e8f895927ad},
	"MeshSlice/OS/pipelined/2x2":  {0xad08b88f95066e77, 0x3dcc2e8f895927ad},
	"MeshSlice/LS/serial/2x2":     {0xfaccc0165c6cd532, 0xd1758c08774d699d},
	"MeshSlice/LS/pipelined/2x2":  {0xfaccc0165c6cd532, 0xd1758c08774d699d},
	"MeshSlice/RS/serial/2x2":     {0x8029d6130c078a7f, 0x63dfa940308320f5},
	"MeshSlice/RS/pipelined/2x2":  {0x8029d6130c078a7f, 0x63dfa940308320f5},
	"Collective/OS/serial/2x2":    {0x2f1726a7bcd013b4, 0x92b2ba595aacdec9},
	"Collective/OS/pipelined/2x2": {0x2f1726a7bcd013b4, 0x92b2ba595aacdec9},
	"Collective/LS/serial/2x2":    {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"Collective/LS/pipelined/2x2": {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"Collective/RS/serial/2x2":    {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"Collective/RS/pipelined/2x2": {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"SUMMA/OS/serial/2x2":         {0x2f1726a7bcd013b4, 0x92b2ba595aacdec9},
	"SUMMA/OS/pipelined/2x2":      {0x2f1726a7bcd013b4, 0x92b2ba595aacdec9},
	"SUMMA/LS/serial/2x2":         {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"SUMMA/LS/pipelined/2x2":      {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"SUMMA/RS/serial/2x2":         {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"SUMMA/RS/pipelined/2x2":      {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"Cannon/OS/serial/2x2":        {0x9caa674ea8c7ea26, 0xf18d93edca606729},
	"Cannon/OS/pipelined/2x2":     {0x9caa674ea8c7ea26, 0xf18d93edca606729},
	"Wang/OS/serial/2x2":          {0x1efc0f01d0b62780, 0x92b2ba595aacdec9},
	"Wang/OS/pipelined/2x2":       {0x1efc0f01d0b62780, 0x92b2ba595aacdec9},
	"Wang/LS/serial/2x2":          {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"Wang/LS/pipelined/2x2":       {0xfaccc0165c6cd532, 0x67fae8207e026c31},
	"Wang/RS/serial/2x2":          {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"Wang/RS/pipelined/2x2":       {0x8029d6130c078a7f, 0x98ab4d5b307f02c9},
	"MeshSlice/OS/serial/2x4":     {0xad08b88f95066e77, 0x71a59b2a1aae7a1d},
	"MeshSlice/OS/pipelined/2x4":  {0xad08b88f95066e77, 0x71a59b2a1aae7a1d},
	"MeshSlice/LS/serial/2x4":     {0x9176a6226ae89ce9, 0x254441807a14256d},
	"MeshSlice/LS/pipelined/2x4":  {0x9176a6226ae89ce9, 0x254441807a14256d},
	"MeshSlice/RS/serial/2x4":     {0x8029d6130c078a7f, 0xa9d0f14bfe85b7c5},
	"MeshSlice/RS/pipelined/2x4":  {0x8029d6130c078a7f, 0xa9d0f14bfe85b7c5},
	"Collective/OS/serial/2x4":    {0x2f1726a7bcd013b4, 0xd23c00c8d8ba5325},
	"Collective/OS/pipelined/2x4": {0x2f1726a7bcd013b4, 0xd23c00c8d8ba5325},
	"Collective/LS/serial/2x4":    {0x9176a6226ae89ce9, 0x7d78e84a195818cd},
	"Collective/LS/pipelined/2x4": {0x9176a6226ae89ce9, 0x7d78e84a195818cd},
	"Collective/RS/serial/2x4":    {0x8029d6130c078a7f, 0x4e106b3830a07cf5},
	"Collective/RS/pipelined/2x4": {0x8029d6130c078a7f, 0x4e106b3830a07cf5},
	"SUMMA/OS/serial/2x4":         {0x2f1726a7bcd013b4, 0x6d14e28f7991aee5},
	"SUMMA/OS/pipelined/2x4":      {0x2f1726a7bcd013b4, 0x6d14e28f7991aee5},
	"SUMMA/LS/serial/2x4":         {0x9176a6226ae89ce9, 0x840305e137cd2995},
	"SUMMA/LS/pipelined/2x4":      {0x9176a6226ae89ce9, 0x840305e137cd2995},
	"SUMMA/RS/serial/2x4":         {0x8029d6130c078a7f, 0x94818d19673990d5},
	"SUMMA/RS/pipelined/2x4":      {0x8029d6130c078a7f, 0x94818d19673990d5},
	"Wang/OS/serial/2x4":          {0x82a121881c546e37, 0x1fb853d37583db75},
	"Wang/OS/pipelined/2x4":       {0x82a121881c546e37, 0x1fb853d37583db75},
	"Wang/LS/serial/2x4":          {0x9176a6226ae89ce9, 0x7d78e84a195818cd},
	"Wang/LS/pipelined/2x4":       {0x9176a6226ae89ce9, 0x7d78e84a195818cd},
	"Wang/RS/serial/2x4":          {0x8029d6130c078a7f, 0x763e2bc49974597d},
	"Wang/RS/pipelined/2x4":       {0x8029d6130c078a7f, 0x763e2bc49974597d},
	"MeshSlice/OS/serial/4x4":     {0xcf7bb847c48b5ce1, 0x5da786e885f765bd},
	"MeshSlice/OS/pipelined/4x4":  {0xcf7bb847c48b5ce1, 0x5da786e885f765bd},
	"MeshSlice/LS/serial/4x4":     {0x9176a6226ae89ce9, 0x1055e0d518414d25},
	"MeshSlice/LS/pipelined/4x4":  {0x9176a6226ae89ce9, 0x1055e0d518414d25},
	"MeshSlice/RS/serial/4x4":     {0xc04ef5f4e3a4d3c0, 0xad651cf998ae3fe5},
	"MeshSlice/RS/pipelined/4x4":  {0xc04ef5f4e3a4d3c0, 0xad651cf998ae3fe5},
	"Collective/OS/serial/4x4":    {0x2f1726a7bcd013b4, 0xe03c74727d5d2b25},
	"Collective/OS/pipelined/4x4": {0x2f1726a7bcd013b4, 0xe03c74727d5d2b25},
	"Collective/LS/serial/4x4":    {0x9176a6226ae89ce9, 0xadfcf57b32cb7591},
	"Collective/LS/pipelined/4x4": {0x9176a6226ae89ce9, 0xadfcf57b32cb7591},
	"Collective/RS/serial/4x4":    {0xc04ef5f4e3a4d3c0, 0x12c4f9573b5328f1},
	"Collective/RS/pipelined/4x4": {0xc04ef5f4e3a4d3c0, 0x12c4f9573b5328f1},
	"SUMMA/OS/serial/4x4":         {0x2f1726a7bcd013b4, 0xe03c74727d5d2b25},
	"SUMMA/OS/pipelined/4x4":      {0x2f1726a7bcd013b4, 0xe03c74727d5d2b25},
	"SUMMA/LS/serial/4x4":         {0x9176a6226ae89ce9, 0xadfcf57b32cb7591},
	"SUMMA/LS/pipelined/4x4":      {0x9176a6226ae89ce9, 0xadfcf57b32cb7591},
	"SUMMA/RS/serial/4x4":         {0xc04ef5f4e3a4d3c0, 0x12c4f9573b5328f1},
	"SUMMA/RS/pipelined/4x4":      {0xc04ef5f4e3a4d3c0, 0x12c4f9573b5328f1},
	"Cannon/OS/serial/4x4":        {0x3e3fb2f3e6de0e1f, 0xcfeadcf9c68e9f17},
	"Cannon/OS/pipelined/4x4":     {0x3e3fb2f3e6de0e1f, 0xcfeadcf9c68e9f17},
	"Wang/OS/serial/4x4":          {0x1438c3730aa9e452, 0xa4f32de560a4ab6d},
	"Wang/OS/pipelined/4x4":       {0x1438c3730aa9e452, 0xa4f32de560a4ab6d},
	"Wang/LS/serial/4x4":          {0x9176a6226ae89ce9, 0xa115ca2c090c47a1},
	"Wang/LS/pipelined/4x4":       {0x9176a6226ae89ce9, 0xa115ca2c090c47a1},
	"Wang/RS/serial/4x4":          {0xc04ef5f4e3a4d3c0, 0xe35f9ecce5bfd25d},
	"Wang/RS/pipelined/4x4":       {0xc04ef5f4e3a4d3c0, 0xe35f9ecce5bfd25d},
}

// wireDigest hashes the recorder's message events grouped per directed
// edge, so the digest is independent of how background lanes merge into a
// chip's log.
func wireDigest(snap *recorder.Snapshot) uint64 {
	type edge struct {
		kind     string
		from, to int
	}
	streams := map[edge][]string{}
	for _, l := range snap.Logs {
		for _, e := range l.Events {
			var k edge
			switch e.Kind {
			case "send":
				k = edge{"send", l.Chip, e.Peer}
			case "recv":
				k = edge{"recv", e.Peer, l.Chip}
			default:
				continue
			}
			streams[k] = append(streams[k], fmt.Sprintf("%d,%d,%d", e.Peer, e.Rows, e.Cols))
		}
	}
	keys := make([]edge, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %d->%d:", k.kind, k.from, k.to)
		for _, m := range streams[k] {
			fmt.Fprintf(h, " %s", m)
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// TestPinnedDigests replays the whole registry on every pinned mesh, in
// both modes, and requires the result bits and per-edge message streams to
// match the table exactly.
func TestPinnedDigests(t *testing.T) {
	seen := 0
	for _, pm := range pinnedMeshes {
		tor := topology.NewTorus(pm.rows, pm.cols)
		for _, alg := range Algorithms() {
			for _, df := range alg.Dataflows {
				p := Problem{M: 64, N: 128, K: 32, Dataflow: df}
				if alg.Validate(p, tor, pm.opts) != nil {
					continue
				}
				for _, pipelined := range []bool{false, true} {
					opts := pm.opts
					opts.Pipelined = pipelined
					mode := "serial"
					if pipelined {
						mode = "pipelined"
					}
					key := fmt.Sprintf("%s/%v/%s/%dx%d", alg.Name, df, mode, pm.rows, pm.cols)
					a, b, _ := makeProblem(p, 21)
					m := mesh.New(tor)
					rec := recorder.New(tor.Size(), 1<<12)
					m.SetRecorder(rec)
					got := MultiplyOn(m, alg.Build(df, opts), a, b)
					snap := rec.Snapshot()
					for _, l := range snap.Logs {
						if l.Truncated > 0 {
							t.Fatalf("%s: chip %d truncated %d events", key, l.Chip, l.Truncated)
						}
					}
					h := fnv.New64a()
					var buf [8]byte
					for _, v := range got.Data {
						bits := math.Float64bits(v)
						for i := range buf {
							buf[i] = byte(bits >> (8 * i))
						}
						h.Write(buf[:])
					}
					d := pinnedDigest{Result: h.Sum64(), Wire: wireDigest(snap)}
					seen++
					want, ok := pinnedDigests[key]
					if !ok {
						t.Errorf("no pinned digest: %q: {0x%016x, 0x%016x},", key, d.Result, d.Wire)
						continue
					}
					if d.Result != want.Result {
						t.Errorf("%s: result bits changed", key)
					}
					if d.Wire != want.Wire {
						t.Errorf("%s: per-edge message streams changed", key)
					}
				}
			}
		}
	}
	if seen != len(pinnedDigests) {
		t.Errorf("ran %d configurations, table pins %d", seen, len(pinnedDigests))
	}
}
