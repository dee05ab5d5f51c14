package locallab_test

// Determinism integration tests: identical seeds must yield identical
// outputs through the entire stack — any hidden map-iteration
// nondeterminism in the solvers would break replayability of the
// experiments recorded in EXPERIMENTS.md.

import (
	"testing"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
	"locallab/internal/scenario"
	"locallab/internal/sinkless"
	"locallab/internal/solver"
)

func TestDeterministicSolverReplays(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	first, cost1, err := sinkless.NewDetSolver().Solve(g, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, cost2, err := sinkless.NewDetSolver().Solve(g, in, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !lcl.Equal(first, again) {
			t.Fatal("deterministic solver output changed across runs")
		}
		if cost1.Rounds() != cost2.Rounds() {
			t.Fatal("deterministic solver cost changed across runs")
		}
	}
}

func TestRandomizedSolverSeedReplays(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 23, false)
	if err != nil {
		t.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	a, _, err := sinkless.NewRandSolver().Solve(g, in, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sinkless.NewRandSolver().Solve(g, in, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(a, b) {
		t.Fatal("same seed produced different randomized outputs")
	}
	c, _, err := sinkless.NewRandSolver().Solve(g, in, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lcl.Equal(a, c) {
		t.Fatal("different seeds produced identical outputs (suspicious)")
	}
}

// shardedConfigs is the engine grid the equivalence property tests sweep:
// the inline mode, then from a single worker on a single shard up to
// heavy oversharding.
var shardedConfigs = []engine.Options{
	{Sequential: true},
	{Workers: 1, Shards: 1},
	{Workers: 2, Shards: 5},
	{Workers: 4, Shards: 16},
	{Workers: 8, Shards: 64},
	{}, // package defaults (GOMAXPROCS workers)
}

// protocolPin is one cell of a pinned protocol grid: the rounds and the
// solver.LabelingChecksum a message-passing solver must reproduce on the
// (n, seed) instance. The values were recorded from the independent
// boxed-message sequential implementation of each protocol before it was
// retired, so the typed machines stay pinned to it by number.
type protocolPin struct {
	n        int
	seed     int64
	rounds   int
	checksum uint64
}

// sinklessPins: MessageSolver on NewRandomRegular(n, 3, seed*31+n).
var sinklessPins = []protocolPin{
	{64, 1, 6, 0x4dcc30518378f31b},
	{64, 2, 6, 0x62c4211161b1506b},
	{64, 3, 6, 0x16cc2b4b479bdc7b},
	{64, 4, 8, 0xcb3a33565ec1eb77},
	{64, 5, 6, 0x0d60bba458d58db7},
	{128, 1, 6, 0x974b6e821a7fe4bb},
	{128, 2, 6, 0x4dbc5ae168cc2647},
	{128, 3, 6, 0x3e45918ae96d8f3b},
	{128, 4, 8, 0x827df07b4ff4f1b3},
	{128, 5, 8, 0xb94c31b578ec4aff},
	{256, 1, 6, 0xb2773f7df0f12c93},
	{256, 2, 10, 0x5cc61d908592828b},
	{256, 3, 14, 0xe87c9d4d9000a0e7},
	{256, 4, 6, 0x958a4d3e8b0544e3},
	{256, 5, 8, 0xa83366966166dc37},
}

// coloringPins: CVSolver on NewCycle(n, seed).
var coloringPins = []protocolPin{
	{33, 1, 9, 0xb301d91849b5848b},
	{33, 2, 9, 0xe5a485c614006a2f},
	{33, 3, 8, 0xe162635e5d18d738},
	{33, 4, 8, 0x95ab49391eda2b5d},
	{33, 5, 9, 0x6548397f14b1ab73},
	{100, 1, 8, 0xc6a22584850e4de6},
	{100, 2, 9, 0xac3838c1400d6eed},
	{100, 3, 8, 0x29213c0aa38e5fa5},
	{100, 4, 9, 0xfe6668dcb6c458a2},
	{100, 5, 10, 0x652e30454f65331a},
	{257, 1, 9, 0x55b316fbb2b8beb9},
	{257, 2, 9, 0x18d841d1cfe9b648},
	{257, 3, 9, 0x5cde9536a81e69dd},
	{257, 4, 9, 0xa26d67d21cc7b97f},
	{257, 5, 9, 0xb60eb1e22fdf4b95},
}

// misPins: MISSolver on NewCycle(n, seed).
var misPins = []protocolPin{
	{33, 1, 11, 0xe6a0dcf896e08ad4},
	{33, 2, 11, 0x83d5cdacd946f9ea},
	{33, 3, 10, 0x75db218177238293},
	{33, 4, 10, 0x9043688cb8c57f6a},
	{33, 5, 11, 0x02ad17d117acbebc},
	{100, 1, 10, 0xc88ec608fb35cd32},
	{100, 2, 11, 0xb5386af95e977a77},
	{100, 3, 10, 0x105f46c5c9e70435},
	{100, 4, 11, 0x36adce849f7eb2be},
	{100, 5, 12, 0x726595e610fcf436},
	{257, 1, 11, 0x1fd4691accd687c6},
	{257, 2, 11, 0xc937e226b4861ac5},
	{257, 3, 11, 0x4f3ebf54f1c6431c},
	{257, 4, 11, 0xa3df4fba681cd026},
	{257, 5, 11, 0x9613c3d2b6a69724},
}

// checkPins solves every pinned cell on every engine geometry and
// asserts the pinned rounds and checksum, plus a valid output.
func checkPins(t *testing.T, pins []protocolPin, build func(n int, seed int64) (*graph.Graph, error),
	p lcl.Problem, solve func(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error)) {
	t.Helper()
	for _, pin := range pins {
		g, err := build(pin.n, pin.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := lcl.NewLabeling(g)
		for _, opts := range shardedConfigs {
			out, cost, err := solve(engine.New(opts), g, in, pin.seed)
			if err != nil {
				t.Fatalf("n=%d seed=%d %+v: %v", pin.n, pin.seed, opts, err)
			}
			if got := solver.LabelingChecksum(out); got != pin.checksum {
				t.Fatalf("n=%d seed=%d %+v: checksum %016x, want pinned %016x", pin.n, pin.seed, opts, got, pin.checksum)
			}
			if cost.Rounds() != pin.rounds {
				t.Fatalf("n=%d seed=%d %+v: rounds %d, want pinned %d", pin.n, pin.seed, opts, cost.Rounds(), pin.rounds)
			}
			if err := lcl.Verify(g, p, in, out); err != nil {
				t.Fatalf("n=%d seed=%d %+v: invalid output: %v", pin.n, pin.seed, opts, err)
			}
		}
	}
}

// TestShardedEngineMatchesSequentialSinkless is the property test of the
// engine: on random 3-regular graphs, the message-passing sinkless
// solver must reproduce the pinned labelings and rounds in the inline
// mode and on every worker/shard geometry, for every master seed and
// graph size.
func TestShardedEngineMatchesSequentialSinkless(t *testing.T) {
	checkPins(t, sinklessPins, func(n int, seed int64) (*graph.Graph, error) {
		return graph.NewRandomRegular(n, 3, seed*31+int64(n), false)
	}, sinkless.Problem{}, func(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
		return (&sinkless.MessageSolver{MaxRounds: 4096, Engine: eng}).Solve(g, in, seed)
	})
}

// TestShardedEngineMatchesSequentialColoring is the deterministic-solver
// counterpart: Cole–Vishkin 3-coloring on cycles through the same engine
// grid.
func TestShardedEngineMatchesSequentialColoring(t *testing.T) {
	checkPins(t, coloringPins, graph.NewCycle, coloring.Three{},
		func(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
			return (&coloring.CVSolver{MaxRounds: 1 << 20, Engine: eng}).Solve(g, in, seed)
		})
}

// TestShardedEngineMatchesSequentialMIS closes the trio: the MIS
// solver's coloring stage runs the Cole–Vishkin machine, and its
// labelings must reproduce the pinned grid too.
func TestShardedEngineMatchesSequentialMIS(t *testing.T) {
	checkPins(t, misPins, graph.NewCycle, coloring.MIS{},
		func(eng *engine.Engine, g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
			return (&coloring.MISSolver{Engine: eng}).Solve(g, in, seed)
		})
}

// TestScenarioReportReplays extends the determinism suite to the
// scenario subsystem: the full declarative pipeline — spec → family
// builders → solvers → report — must emit byte-identical canonical JSON
// across runs and grid worker counts.
func TestScenarioReportReplays(t *testing.T) {
	spec := &scenario.Spec{Name: "determinism", Scenarios: []scenario.Scenario{
		{Name: "msg", Family: "regular", Solver: "sinkless-msg",
			Sizes: []int{64, 128}, Seeds: []int64{3, 4},
			Engine: scenario.EngineParams{Workers: 2, Shards: 8}},
		{Name: "cv", Family: "cycle-advid", Solver: "cole-vishkin",
			Sizes: []int{65}, Seeds: []int64{1}},
	}}
	var first []byte
	for _, workers := range []int{1, 4, 1} {
		rep, err := scenario.Run(spec, scenario.RunOptions{GridWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
			continue
		}
		if string(data) != string(first) {
			t.Fatalf("workers=%d: scenario report bytes changed", workers)
		}
	}
}

// TestPaddedEngineScenarioReplays is the padded counterpart of the
// scenario determinism suite: the padded-engine builtin — the whole
// Lemma-4 pipeline as Ψ fixpoint machines plus dilated simulation
// sessions on the sharded engine — must emit byte-identical canonical
// JSON across 1/2/4 grid workers, and every cell must report the engine's
// message deliveries.
func TestPaddedEngineScenarioReplays(t *testing.T) {
	spec, ok := scenario.Builtin("padded-engine")
	if !ok {
		t.Fatal("padded-engine builtin missing")
	}
	var first []byte
	for _, workers := range []int{1, 2, 4} {
		rep, err := scenario.Run(spec, scenario.RunOptions{GridWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, sr := range rep.Scenarios {
			for _, c := range sr.Cells {
				if c.Messages <= 0 {
					t.Fatalf("workers=%d: padded cell %s n=%d seed=%d reports no engine deliveries",
						workers, sr.Name, c.N, c.Seed)
				}
			}
		}
		data, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
			continue
		}
		if string(data) != string(first) {
			t.Fatalf("workers=%d: padded-engine report bytes changed", workers)
		}
	}
}

// TestEnginePaddedSolverReplays pins the engine-backed hierarchy solver
// into the root determinism suite: byte-identical labelings to the
// sequential Lemma-4 oracle on the same instance and seed.
func TestEnginePaddedSolverReplays(t *testing.T) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	det, _, err := lvl.EngineSolvers(engine.New(engine.Options{Workers: 4, Shards: 16}))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(want, got) {
		t.Fatal("engine-backed padded labeling differs from the sequential oracle")
	}
}

func TestPaddedPipelineReplays(t *testing.T) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.NewLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := lvl.Det.Solve(inst.G, inst.In, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lcl.Equal(a, b) {
		t.Fatal("padded pipeline output changed across runs")
	}
	// Instance construction itself replays.
	inst2, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 16, Seed: 5, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(inst.G, inst2.G) {
		t.Fatal("instance construction changed across runs")
	}
	if !lcl.Equal(inst.In, inst2.In) {
		t.Fatal("instance inputs changed across runs")
	}
}
