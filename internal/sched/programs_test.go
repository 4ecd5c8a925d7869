package sched_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"meshslice/internal/autotune"
	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// programGroup fingerprints every program a grid group builds: how many
// programs and ops it holds, and an FNV-64a digest over each program's
// label, mesh and every field of every op.
type programGroup struct {
	Programs, Ops int
	Digest        uint64
}

// pinnedPrograms records the MeshSlice/Collective, SUMMA and Wang programs
// of the grid below as they stood when every dataflow was still written out
// by hand in each builder. Key: "Builder/Model/chips"; the synthetic meshes
// form the "Builder/synthetic" groups.
var pinnedPrograms = map[string]programGroup{
	"Collective/GPT-3/16":         {36, 108, 0xab23b3c8af0bcdab},
	"Collective/GPT-3/256":        {84, 252, 0x4f385dc22dadacc7},
	"Collective/GPT-3/64":         {60, 180, 0x7f535c9a2c7728d6},
	"Collective/Llama-3-405B/16":  {36, 108, 0xbbd40a6ab39f2270},
	"Collective/Llama-3-405B/256": {84, 252, 0x83d4c9f7c005ca30},
	"Collective/Llama-3-405B/64":  {60, 180, 0x92fca2a9a6216360},
	"Collective/Llama-3-70B/16":   {36, 108, 0x48bb4dbaaba5928f},
	"Collective/Llama-3-70B/256":  {84, 252, 0x95734371e179ea1a},
	"Collective/Llama-3-70B/64":   {60, 180, 0x3cc4ca2ca35f049f},
	"Collective/Megatron-NLG/16":  {72, 216, 0xf2584757c9d6097f},
	"Collective/Megatron-NLG/256": {84, 252, 0x46dec9c1ec447f7e},
	"Collective/Megatron-NLG/64":  {60, 180, 0x08a6dbc25f8081b1},
	"Collective/PaLM-540B/16":     {72, 216, 0x322f7149323fc863},
	"Collective/PaLM-540B/256":    {84, 252, 0x047ab9312d37cb15},
	"Collective/PaLM-540B/64":     {60, 180, 0x0f1572f5538a137d},
	"Collective/synthetic":        {42, 102, 0xa56d791743873114},
	"MeshSlice/GPT-3/16":          {564, 214248, 0x1fd709d2a3cb7c84},
	"MeshSlice/GPT-3/256":         {804, 72072, 0x1d72897faa6e2524},
	"MeshSlice/GPT-3/64":          {756, 133080, 0x211d8edec917df0f},
	"MeshSlice/Llama-3-405B/16":   {384, 198843, 0xcf2857d0c0bb2cad},
	"MeshSlice/Llama-3-405B/256":  {576, 66687, 0x3cc4a6d15b57f4de},
	"MeshSlice/Llama-3-405B/64":   {525, 123405, 0xf3c6253220844216},
	"MeshSlice/Llama-3-70B/16":    {357, 106953, 0xeb4de5ee05af120e},
	"MeshSlice/Llama-3-70B/256":   {513, 35637, 0x5ae24357ea3eea5f},
	"MeshSlice/Llama-3-70B/64":    {480, 66255, 0x98c66dce049923a5},
	"MeshSlice/Megatron-NLG/16":   {900, 444036, 0xb4d9425516fb7d27},
	"MeshSlice/Megatron-NLG/256":  {804, 108192, 0x39937c3e1b4726a9},
	"MeshSlice/Megatron-NLG/64":   {756, 199680, 0x114eaf26500a2103},
	"MeshSlice/PaLM-540B/16":      {1074, 469656, 0x299093847f282cc7},
	"MeshSlice/PaLM-540B/256":     {954, 114492, 0xbd74b3d63c2975ca},
	"MeshSlice/PaLM-540B/64":      {954, 214380, 0x1247f97f4018aadc},
	"MeshSlice/synthetic":         {324, 10302, 0xe88b9f031c2a3414},
	"SUMMA/GPT-3/16":              {180, 3960, 0xd82ce5f8653474c9},
	"SUMMA/GPT-3/256":             {420, 24264, 0x8d3a2588e419e6b3},
	"SUMMA/GPT-3/64":              {300, 9144, 0x94c5cc1e876c5841},
	"SUMMA/Llama-3-405B/16":       {180, 3960, 0x2ee954e6ab4338c9},
	"SUMMA/Llama-3-405B/256":      {420, 24264, 0x5cc90d9c51694775},
	"SUMMA/Llama-3-405B/64":       {300, 9144, 0x94f8af8f6f60235f},
	"SUMMA/Llama-3-70B/16":        {180, 3960, 0x9558e466c9eb21dd},
	"SUMMA/Llama-3-70B/256":       {420, 24264, 0x4f319e827657c645},
	"SUMMA/Llama-3-70B/64":        {300, 9144, 0x0cb7d29c9cfbd77b},
	"SUMMA/Megatron-NLG/16":       {360, 7920, 0x630660080df9452f},
	"SUMMA/Megatron-NLG/256":      {420, 24264, 0xb1a2b0d058ee8f51},
	"SUMMA/Megatron-NLG/64":       {300, 9144, 0x37569b29fbd0e8f1},
	"SUMMA/PaLM-540B/16":          {360, 7920, 0xa86ea745529a024f},
	"SUMMA/PaLM-540B/256":         {420, 24264, 0xe8460ef027c896e9},
	"SUMMA/PaLM-540B/64":          {300, 9144, 0xb3f73447054e40f5},
	"SUMMA/synthetic":             {210, 3702, 0x7e8e33a9adb91ad2},
	"Wang/GPT-3/16":               {72, 556, 0x0d238a41e589e4c3},
	"Wang/GPT-3/256":              {168, 7756, 0xab5952beb0faccd3},
	"Wang/GPT-3/64":               {120, 2068, 0x85a2f5f8895d4e17},
	"Wang/Llama-3-405B/16":        {72, 556, 0xb4dea1583114326d},
	"Wang/Llama-3-405B/256":       {168, 7636, 0xcade452e0b0dc9b9},
	"Wang/Llama-3-405B/64":        {120, 2044, 0x7fe7a7678de55312},
	"Wang/Llama-3-70B/16":         {72, 530, 0xde8f38ec2e1183a5},
	"Wang/Llama-3-70B/256":        {168, 7010, 0xafc74cd0a6cdc9d1},
	"Wang/Llama-3-70B/64":         {120, 1898, 0xf44601e1a4d3324f},
	"Wang/Megatron-NLG/16":        {144, 1112, 0x180c264a1bf1a063},
	"Wang/Megatron-NLG/256":       {168, 8092, 0xfdf7e561a9470ae4},
	"Wang/Megatron-NLG/64":        {120, 2116, 0x18ad1ab0d1b33e93},
	"Wang/PaLM-540B/16":           {144, 1112, 0xf23b2d532df7bf0b},
	"Wang/PaLM-540B/256":          {168, 8044, 0xe527e0d0ea826b38},
	"Wang/PaLM-540B/64":           {120, 2116, 0xcdfd80d7cc144a2c},
	"Wang/synthetic":              {84, 461, 0x89606df7e26ef073},
}

// syntheticMeshes are meshes no builtin model's grid reaches: degenerate
// rings, a non-power-of-two ring and the smallest squares.
var syntheticMeshes = []topology.Torus{
	topology.NewTorus(1, 1), topology.NewTorus(1, 4), topology.NewTorus(4, 1),
	topology.NewTorus(2, 2), topology.NewTorus(3, 4), topology.NewTorus(4, 8),
	topology.NewTorus(8, 8),
}

// summaIterations are SUMMA's panel counts: 0 selects lcm(Pr, Pc).
var summaIterations = []int{0, 2, 4, 8, 16}

// programGrid builds the pinned grid and calls visit with each program's
// group. The model grid is every pass of every builtin model's PlanModel
// (both dataflow heuristics) at 16, 64 and 256 chips, on every 2D shape
// that shards it, at every valid slice count.
func programGrid(visit func(group string, p *sched.Program)) {
	chip := hw.TPUv4()
	build := func(suffix string, probs []gemm.Problem, shapes []topology.Torus) {
		for _, shape := range shapes {
			for _, p := range probs {
				slices := autotune.ValidSliceCounts(p, shape, chip)
				if slices == nil {
					continue
				}
				for _, s := range slices {
					visit("MeshSlice/"+suffix, sched.MeshSliceProgram(p, shape, chip, s))
				}
				visit("Collective/"+suffix, sched.CollectiveProgram(p, shape, chip))
				for _, it := range summaIterations {
					visit("SUMMA/"+suffix, sched.SUMMAProgram(p, shape, chip, it))
				}
				for _, u := range []int{0, 2} {
					visit("Wang/"+suffix, sched.WangProgram(p, shape, chip, u))
				}
			}
		}
	}
	for _, cfg := range model.Builtins() {
		for _, chips := range []int{16, 64, 256} {
			tokens := cfg.WeakScalingTokens(chips)
			var probs []gemm.Problem
			seen := map[gemm.Problem]bool{}
			for _, opt := range []bool{true, false} {
				for _, plan := range autotune.PlanModel(cfg, tokens, opt) {
					for _, p := range plan.Passes {
						if !seen[p] {
							seen[p] = true
							probs = append(probs, p)
						}
					}
				}
			}
			build(fmt.Sprintf("%s/%d", cfg.Name, chips), probs, topology.MeshShapes2D(chips))
		}
	}
	var synth []gemm.Problem
	for _, df := range []gemm.Dataflow{gemm.OS, gemm.LS, gemm.RS} {
		synth = append(synth,
			gemm.Problem{M: 768, N: 768, K: 768, Dataflow: df},
			gemm.Problem{M: 384, N: 1536, K: 768, Dataflow: df})
	}
	build("synthetic", synth, syntheticMeshes)
}

// programDigest folds one program into h.
func programDigest(h interface{ Write([]byte) (int, error) }, p *sched.Program) {
	var buf []byte
	u := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) { i(len(v)); buf = append(buf, v...) }
	s(p.Label)
	i(p.Torus.Rows)
	i(p.Torus.Cols)
	if p.Grid3 != nil {
		i(1)
	} else {
		i(0)
	}
	i(len(p.Ops))
	for _, op := range p.Ops {
		i(int(op.Kind))
		s(op.Name)
		i(int(op.Dir))
		f(op.Bytes)
		i(op.Steps)
		i(op.Packets)
		f(op.FLOPs)
		i(op.M)
		i(op.N)
		i(op.K)
		f(op.HBMBytes)
		i(len(op.Deps))
		for _, d := range op.Deps {
			i(d)
		}
	}
	h.Write(buf)
}

// TestPinnedPrograms holds the flow-derived builders to the hand-written
// ones they replaced, bit for bit on every field of every op, over every
// builtin model's passes and the synthetic meshes.
func TestPinnedPrograms(t *testing.T) {
	type acc struct {
		programs, ops int
		h             interface {
			Write([]byte) (int, error)
			Sum64() uint64
		}
	}
	groups := map[string]*acc{}
	programGrid(func(group string, p *sched.Program) {
		g := groups[group]
		if g == nil {
			g = &acc{h: fnv.New64a()}
			groups[group] = g
		}
		g.programs++
		g.ops += len(p.Ops)
		programDigest(g.h, p)
	})
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		got := programGroup{g.programs, g.ops, g.h.Sum64()}
		if want, ok := pinnedPrograms[k]; !ok || got != want {
			t.Errorf("%-32q {%d, %d, %#016x}, want %+v", k+":", got.Programs, got.Ops, got.Digest, want)
		}
	}
	if len(groups) != len(pinnedPrograms) {
		t.Errorf("grid has %d groups, table %d", len(groups), len(pinnedPrograms))
	}
}
