package locallab_test

// One benchmark per paper artifact (figures 1-8, Theorems 1/6/11, plus
// the DESIGN.md ablations), each regenerating its table at quick scale,
// plus micro-benchmarks of the load-bearing primitives. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the recorded paper-vs-measured comparison.

import (
	"testing"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/experiments"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/scenario"
	"locallab/internal/sinkless"
	"locallab/internal/twin"
)

func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if r.Table == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1Landscape(b *testing.B)       { benchExperiment(b, experiments.Fig1Landscape) }
func BenchmarkFig2Padding(b *testing.B)         { benchExperiment(b, experiments.Fig2Padding) }
func BenchmarkFig3SinklessCheck(b *testing.B)   { benchExperiment(b, experiments.Fig3SinklessChecker) }
func BenchmarkFig4PortMapping(b *testing.B)     { benchExperiment(b, experiments.Fig4PortMapping) }
func BenchmarkFig5SubGadget(b *testing.B)       { benchExperiment(b, experiments.Fig5SubGadget) }
func BenchmarkFig6Gadget(b *testing.B)          { benchExperiment(b, experiments.Fig6Gadget) }
func BenchmarkFig7ColorProof(b *testing.B)      { benchExperiment(b, experiments.Fig7ColorProof) }
func BenchmarkFig8ChainProof(b *testing.B)      { benchExperiment(b, experiments.Fig8ChainProof) }
func BenchmarkThm1Transform(b *testing.B)       { benchExperiment(b, experiments.Thm1Transform) }
func BenchmarkThm6GadgetFamily(b *testing.B)    { benchExperiment(b, experiments.Thm6GadgetFamily) }
func BenchmarkThm11Hierarchy(b *testing.B)      { benchExperiment(b, experiments.Thm11Hierarchy) }
func BenchmarkAblationBalance(b *testing.B)     { benchExperiment(b, experiments.AblationBalance) }
func BenchmarkAblationRandRepair(b *testing.B)  { benchExperiment(b, experiments.AblationRandRepair) }
func BenchmarkDiscussionNetDecomp(b *testing.B) { benchExperiment(b, experiments.DiscussionNetDecomp) }
func BenchmarkLowerBoundWitness(b *testing.B)   { benchExperiment(b, experiments.LowerBoundWitness) }
func BenchmarkAblationDoubling(b *testing.B)    { benchExperiment(b, experiments.AblationDoubling) }
func BenchmarkAblationMessages(b *testing.B)    { benchExperiment(b, experiments.AblationMessageProtocol) }

// Micro-benchmarks of the primitives behind the experiments.

func BenchmarkSinklessDet2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewDetSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSinklessRand2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewRandSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCVSolve2048 drives the Cole–Vishkin solver end to end on a
// 2048-cycle on the typed cvMsg plane; the reported allocs/op are the
// per-Solve setup (machines, labeling, cost), not the round loop, which
// the AllocsPerRun pins in internal/coloring hold at zero. (The engine-only round-loop numbers
// are BenchmarkCVEngine*2048 in internal/coloring.)
func BenchmarkCVSolve2048(b *testing.B) {
	g, err := graph.NewCycle(2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := coloring.NewCVSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinklessMsg2048 drives the message-passing sinkless protocol
// through the sharded engine on the typed smMsg plane; like
// BenchmarkCVSolve2048, steady-state rounds allocate nothing and the
// reported allocs/op are per-Solve setup.
func BenchmarkSinklessMsg2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	in := lcl.NewLabeling(g)
	s := sinkless.NewMessageSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(g, in, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGadgetVerifier(b *testing.B) {
	gd, err := gadget.BuildUniform(3, 7)
	if err != nil {
		b.Fatal(err)
	}
	vf := &errorproof.Verifier{Delta: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vf.Run(gd.G, gd.In, gd.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaddedSolveLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(inst.G, inst.In, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePaddedSolveLevel2 is the engine-backed counterpart of
// BenchmarkPaddedSolveLevel2: the same Lemma-4 pipeline, but with Ψ
// computed by the fixpoint message machines and every simulated inner
// round realized as d+1 physical engine rounds. It does strictly more
// work than the oracle (it executes the message plane the analytical
// accounting only charges for), so the interesting numbers are the
// scaling across workers, not the comparison against the oracle.
func BenchmarkEnginePaddedSolveLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			s := core.NewEnginePaddedSolver(sinkless.NewDetSolver(), 3,
				engine.New(engine.Options{Workers: workers}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Solve(inst.G, inst.In, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyPaddedLevel2(b *testing.B) {
	inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: 32, Seed: 3, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
	out, _, err := s.Solve(inst.G, inst.In, 0)
	if err != nil {
		b.Fatal(err)
	}
	prime := core.NewPiPrime(sinkless.Problem{}, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyPadded(inst.G, prime, inst.In, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCyclePotential(b *testing.B) {
	g, err := graph.NewRandomRegular(4096, 3, 7, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CyclePotential(60)
	}
}

func BenchmarkBallGathering(b *testing.B) {
	g, err := graph.NewRandomRegular(8192, 3, 9, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BallAround(graph.NodeID(i%g.NumNodes()), 8)
	}
}

// BenchmarkAutoscaleMixedGrid is the cost-twin acceptance benchmark: the
// autoscale-mixed builtin grid (one engine-backed solver, cell sizes
// spanning two orders of magnitude) under the static split versus the
// twin-driven adaptive split, at the same total worker budget
// (GOMAXPROCS). Statically, the grid layer is the only parallel one, so
// the huge cells run on single-worker engines and dominate the
// makespan; the autoscaler gives exactly those cells the engine workers
// the twin prices as worthwhile. The win only materializes with cores
// to split (compare the sub-benchmarks on a multi-core runner — the
// nightly CI job records the ratio); the report bytes are identical
// either way, which TestAutoscaleByteIdentity pins.
func BenchmarkAutoscaleMixedGrid(b *testing.B) {
	spec, ok := scenario.Builtin("autoscale-mixed")
	if !ok {
		b.Fatal("autoscale-mixed builtin missing")
	}
	tw, err := twin.LoadFile("TWIN_0.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts scenario.RunOptions
	}{
		{"static", scenario.RunOptions{}},
		{"autoscale", scenario.RunOptions{Autoscale: true, Twin: tw}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(spec, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
