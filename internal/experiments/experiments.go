// Package experiments regenerates every figure and theorem artifact of
// the paper's evaluation (see DESIGN.md's experiment index). Each
// experiment returns a rendered table plus notes; cmd/lcl-bench prints
// them and the root benchmarks wrap them.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/measure"
	"locallab/internal/sinkless"
)

// Result is one regenerated artifact.
type Result struct {
	ID    string
	Title string
	Table string
	Notes []string
}

// Scale tunes experiment sizes: 1 = quick (benchmarks), 2 = full
// (cmd/lcl-bench).
type Scale int

// Scales.
const (
	Quick Scale = 1
	Full  Scale = 2
)

// SizeTable is the canonical instance-size grid of a Scale: the single
// source of truth for the sweep sizes the experiments run at, shared
// with the scenario subsystem's builtin specs (internal/scenario).
type SizeTable struct {
	// Cycle sizes for the cycle-family sweeps.
	Cycle []int
	// Regular sizes for the random-3-regular sweeps.
	Regular []int
	// PaddedBases are base-graph sizes for padded (Π₂) instances.
	PaddedBases []int
	// Reps is the number of seed repetitions per size.
	Reps int
}

// Sizes returns the scale's size tables. Quick is what benchmarks and CI
// use; Full regenerates the paper's tables.
func (s Scale) Sizes() SizeTable {
	if s == Quick {
		return SizeTable{
			Cycle:       []int{64, 256, 1024},
			Regular:     []int{64, 256, 1024},
			PaddedBases: []int{12, 24, 48},
			Reps:        1,
		}
	}
	return SizeTable{
		Cycle:       []int{64, 256, 1024, 4096, 16384},
		Regular:     []int{128, 512, 2048, 8192},
		PaddedBases: []int{16, 32, 64, 128},
		Reps:        3,
	}
}

func (s Scale) cycleSizes() []int   { return s.Sizes().Cycle }
func (s Scale) regularSizes() []int { return s.Sizes().Regular }
func (s Scale) paddedBases() []int  { return s.Sizes().PaddedBases }
func (s Scale) reps() int           { return s.Sizes().Reps }

// solveRounds runs a solver on a fresh instance and returns the measured
// rounds.
func solveRounds(s lcl.Solver, g *graph.Graph, seed int64) (int, error) {
	in := lcl.NewLabeling(g)
	_, cost, err := s.Solve(g, in, seed)
	if err != nil {
		return 0, err
	}
	return cost.Rounds(), nil
}

// Fig1Landscape reproduces the landscape of Figure 1: measured
// deterministic and randomized locality per problem, with the best-fit
// growth class. The paper's separations to reproduce: randomness is
// useless for trivial/log*/global problems, helps exponentially for
// sinkless orientation, and helps polynomially for Π₂.
func Fig1Landscape(sc Scale) (*Result, error) {
	type row struct {
		problem   string
		detFit    string
		randFit   string
		detRounds string
		rndRounds string
	}
	var rows []row

	addSeries := func(name string, det, rnd measure.Series) {
		fd := measure.BestFit(det.Points)
		fr := measure.BestFit(rnd.Points)
		rows = append(rows, row{
			problem:   name,
			detFit:    fd[0].Model.Name,
			randFit:   fr[0].Model.Name,
			detRounds: measure.FormatSeries(det),
			rndRounds: measure.FormatSeries(rnd),
		})
	}

	// Cycle problems (randomness does not help; the same algorithm is
	// the best known for both columns).
	cyc := sc.cycleSizes()
	reps := sc.reps()
	trivial, err := measure.Sweep("det", cyc, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return 0, err
		}
		return solveRounds(coloring.TrivialSolver{}, g, seed)
	})
	if err != nil {
		return nil, err
	}
	addSeries("trivial", trivial, trivial)

	col, err := measure.Sweep("det", cyc, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return 0, err
		}
		return solveRounds(coloring.NewCVSolver(), g, seed)
	})
	if err != nil {
		return nil, err
	}
	addSeries("3-coloring cycles", col, col)

	mis, err := measure.Sweep("det", cyc, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return 0, err
		}
		return solveRounds(coloring.NewMISSolver(), g, seed)
	})
	if err != nil {
		return nil, err
	}
	addSeries("MIS on cycles", mis, mis)

	matching, err := measure.Sweep("det", cyc, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return 0, err
		}
		return solveRounds(coloring.NewMatchingSolver(), g, seed)
	})
	if err != nil {
		return nil, err
	}
	addSeries("maximal matching", matching, matching)

	global, err := measure.Sweep("det", cyc, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewCycle(n, seed)
		if err != nil {
			return 0, err
		}
		return solveRounds(coloring.GlobalOrientationSolver{}, g, seed)
	})
	if err != nil {
		return nil, err
	}
	addSeries("consistent orientation", global, global)

	// Sinkless orientation on random 3-regular graphs: the exponential
	// det/rand gap.
	reg := sc.regularSizes()
	skDet, err := measure.Sweep("det", reg, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewRandomRegular(n, 3, seed, false)
		if err != nil {
			return 0, err
		}
		return solveRounds(sinkless.NewDetSolver(), g, seed)
	})
	if err != nil {
		return nil, err
	}
	skRnd, err := measure.Sweep("rand", reg, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewRandomRegular(n, 3, seed, false)
		if err != nil {
			return 0, err
		}
		return solveRounds(sinkless.NewRandSolver(), g, seed+1)
	})
	if err != nil {
		return nil, err
	}
	addSeries("sinkless orientation", skDet, skRnd)

	// Π₂: the polynomial gap of this paper (black dot in Figure 1).
	p2Det, p2Rnd, err := level2Series(sc)
	if err != nil {
		return nil, err
	}
	addSeries("Π₂ = padded(sinkless)", p2Det, p2Rnd)

	tbl := make([][]string, len(rows))
	for i, r := range rows {
		tbl[i] = []string{r.problem, r.detFit, r.randFit, r.detRounds, r.rndRounds}
	}
	return &Result{
		ID:    "E-F1",
		Title: "Figure 1: landscape of deterministic vs randomized locality",
		Table: measure.Table([]string{"problem", "det fit", "rand fit", "det rounds", "rand rounds"}, tbl),
		Notes: []string{
			"trivial/log*/global rows: randomized = deterministic (randomness useless)",
			"sinkless: exponential gap (log vs loglog-shaped)",
			"Π₂: polynomial gap (log² vs log·loglog-shaped) — the paper's new dots",
		},
	}, nil
}

// level2Series sweeps Π₂ with both solvers over balanced instances. The
// sweep closures build their instance and solver state per call, so they
// are safe under the parallel sweep grid.
func level2Series(sc Scale) (det, rnd measure.Series, err error) {
	lvl, err := core.NewLevel(2)
	if err != nil {
		return det, rnd, err
	}
	bases := sc.paddedBases()
	reps := sc.reps()
	run := func(solver lcl.Solver) (measure.Series, error) {
		return measure.Sweep(solver.Name(), bases, reps, func(base int, seed int64) (int, error) {
			inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: base, Seed: seed, Balanced: true})
			if err != nil {
				return 0, err
			}
			_, cost, err := solver.Solve(inst.G, inst.In, seed)
			if err != nil {
				return 0, err
			}
			return cost.Rounds(), nil
		})
	}
	det, err = run(lvl.Det)
	if err != nil {
		return det, rnd, err
	}
	rnd, err = run(lvl.Rand)
	if err != nil {
		return det, rnd, err
	}
	// Replace base sizes by padded sizes in the points (the complexity
	// is a function of N, the padded size).
	fix := func(s *measure.Series) {
		for i := range s.Points {
			inst, err2 := core.BuildInstance(2, core.InstanceOptions{BaseNodes: s.Points[i].N, Seed: 1, Balanced: true})
			if err2 == nil {
				s.Points[i].N = inst.G.NumNodes()
			}
		}
	}
	fix(&det)
	fix(&rnd)
	return det, rnd, nil
}

// Fig2Padding reproduces Figure 2: padding replaces nodes by gadgets,
// stretching virtual distances by Θ(log gadget-size).
func Fig2Padding(sc Scale) (*Result, error) {
	heights := []int{2, 3, 4, 5, 6}
	if sc == Full {
		heights = append(heights, 7, 8)
	}
	base, err := graph.NewRandomRegular(10, 3, 1, false)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, h := range heights {
		pi, err := core.BuildPadded(base, lcl.NewLabeling(base), core.PadOptions{Delta: 3, GadgetHeight: h})
		if err != nil {
			return nil, err
		}
		gadNodes := len(pi.NodesOf[0])
		dil := pi.Dilation()
		rows = append(rows, []string{
			fmt.Sprint(h), fmt.Sprint(gadNodes), fmt.Sprint(pi.G.NumNodes()),
			fmt.Sprint(dil), fmt.Sprintf("%.2f", float64(dil)/math.Log2(float64(gadNodes))),
		})
	}
	return &Result{
		ID:    "E-F2",
		Title: "Figure 2: padding dilation — virtual hop cost vs gadget size",
		Table: measure.Table([]string{"height", "gadget nodes", "padded N", "dilation", "dilation/log2(gadget)"}, rows),
		Notes: []string{"dilation/log2(gadget size) stays bounded: d(n) = Θ(log n), Definition 2"},
	}, nil
}

// Fig3SinklessChecker reproduces Figure 3: the node-edge formulation of
// sinkless orientation — checker completeness and soundness.
func Fig3SinklessChecker(sc Scale) (*Result, error) {
	g, err := graph.NewRandomRegular(60, 3, 2, false)
	if err != nil {
		return nil, err
	}
	in := lcl.NewLabeling(g)
	out, _, err := sinkless.NewDetSolver().Solve(g, in, 0)
	if err != nil {
		return nil, err
	}
	if err := lcl.Verify(g, sinkless.Problem{}, in, out); err != nil {
		return nil, fmt.Errorf("checker rejected valid solution: %w", err)
	}
	caught := 0
	for i := 0; i < g.NumHalves(); i++ {
		c := out.Clone()
		if c.Half[i] == sinkless.LabelOut {
			c.Half[i] = sinkless.LabelIn
		} else {
			c.Half[i] = sinkless.LabelOut
		}
		if lcl.Verify(g, sinkless.Problem{}, in, c) != nil {
			caught++
		}
	}
	rows := [][]string{
		{"valid solutions accepted", "1/1"},
		{"single-half corruptions rejected", fmt.Sprintf("%d/%d", caught, g.NumHalves())},
	}
	notes := []string{"every orientation flip breaks an edge constraint or creates a sink"}
	if caught != g.NumHalves() {
		notes = append(notes, "WARNING: soundness gap")
	}
	return &Result{
		ID:    "E-F3",
		Title: "Figure 3: sinkless orientation as an ne-LCL — checker completeness/soundness",
		Table: measure.Table([]string{"check", "result"}, rows),
		Notes: notes,
	}, nil
}

// Fig4PortMapping reproduces Figure 4: invalid gadgets make ports
// invalid; the survivors are mapped onto a smaller virtual node.
func Fig4PortMapping(sc Scale) (*Result, error) {
	base, err := graph.NewRandomRegular(16, 3, 4, false)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, k := range []int{0, 1, 2, 4} {
		// Removing gadgets can orphan tree-shaped virtual remnants where
		// sinkless orientation — hence Π′ — is genuinely unsolvable;
		// retry corruption patterns until the instance stays solvable.
		var d *core.Detail
		var pi *core.PaddedInstance
		for attempt := 0; ; attempt++ {
			if attempt > 40 {
				return nil, fmt.Errorf("fig4: no solvable corruption pattern for k=%d", k)
			}
			rng := rand.New(rand.NewSource(int64(k*100 + attempt)))
			corrupt := make([]graph.NodeID, k)
			for i := range corrupt {
				corrupt[i] = graph.NodeID(rng.Intn(base.NumNodes()))
			}
			pi, err = core.BuildPadded(base, lcl.NewLabeling(base), core.PadOptions{
				Delta: 3, GadgetHeight: 3, CorruptGadgets: corrupt, Seed: int64(k),
			})
			if err != nil {
				return nil, err
			}
			solver := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
			d, err = solver.SolveDetailed(pi.G, pi.In, 0)
			if err == nil {
				break
			}
		}
		prime := core.NewPiPrime(sinkless.Problem{}, 3)
		verr := core.VerifyPadded(pi.G, prime, pi.In, d.Out)
		counts := map[lcl.Label]int{}
		for v := 0; v < pi.G.NumNodes(); v++ {
			parts, err := core.Split(d.Out.Node[v], 3)
			if err != nil {
				return nil, err
			}
			counts[parts[1]]++
		}
		okStr := "ok"
		if verr != nil {
			okStr = "REJECTED: " + verr.Error()
		}
		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(d.Valid), fmt.Sprint(d.Invalid),
			fmt.Sprint(d.Virtual.NumVirtualNodes()),
			fmt.Sprint(counts[core.NoPortErr]), fmt.Sprint(counts[core.PortErr1]), fmt.Sprint(counts[core.PortErr2]),
			okStr,
		})
	}
	return &Result{
		ID:    "E-F4",
		Title: "Figure 4: port mapping around invalid gadgets",
		Table: measure.Table([]string{"corrupted", "valid", "invalid", "virtual |V|", "NoPortErr", "PortErr1", "PortErr2", "verified"}, rows),
		Notes: []string{"ports facing corrupted gadgets flip to PortErr1; the α-mapping compresses the survivors"},
	}, nil
}

// Fig5SubGadget and Fig6Gadget reproduce the local checkability of
// Figures 5 and 6 (Lemmas 7 and 8): valid structures pass, every standard
// corruption is caught.
func Fig5SubGadget(sc Scale) (*Result, error) {
	return gadgetCheckability("E-F5", "Figure 5: sub-gadget structure and local checkability", 3, 4)
}

// Fig6Gadget is the gadget-level variant (center assembly).
func Fig6Gadget(sc Scale) (*Result, error) {
	return gadgetCheckability("E-F6", "Figure 6: gadget assembly (Δ sub-gadgets + center)", 4, 3)
}

func gadgetCheckability(id, title string, delta, height int) (*Result, error) {
	gd, err := gadget.BuildUniform(delta, height)
	if err != nil {
		return nil, err
	}
	if err := gadget.Validate(gd.G, gd.In, delta); err != nil {
		return nil, fmt.Errorf("valid gadget rejected: %w", err)
	}
	rng := rand.New(rand.NewSource(5))
	corr := gadget.StandardCorruptions(gd, rng)
	caught := 0
	var rows [][]string
	for _, c := range corr {
		g, in, err := c.Apply(gd)
		if err != nil {
			return nil, fmt.Errorf("corruption %s: %w", c.Name, err)
		}
		rejected := gadget.Validate(g, in, delta) != nil
		if rejected {
			caught++
		}
		rows = append(rows, []string{c.Name, fmt.Sprint(rejected)})
	}
	rows = append(rows, []string{"TOTAL caught", fmt.Sprintf("%d/%d", caught, len(corr))})
	return &Result{
		ID:    id,
		Title: title,
		Table: measure.Table([]string{"corruption", "rejected"}, rows),
		Notes: []string{fmt.Sprintf("Δ=%d, height=%d, %d nodes, diameter %d", delta, height, gd.NumNodes(), gd.G.Diameter())},
	}, nil
}

// Fig7ColorProof reproduces Figure 7: distance-2-coloring clash proofs
// certify parallel edges / self-loops in the node-edge formalism.
func Fig7ColorProof(sc Scale) (*Result, error) {
	gd, err := gadget.BuildUniform(3, 3)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	// Parallel edge.
	ed := gd.G.Edge(2)
	g1, in1, err := gadget.CopyWithExtraEdge(gd, ed.U.Node, ed.V.Node, "Garbage", "Garbage")
	if err != nil {
		return nil, err
	}
	p1, err := errorproof.BuildColorClashProof(g1, in1, ed.U.Node)
	ok1 := err == nil && errorproof.CheckColorClashProof(g1, in1, p1) == nil
	rows = append(rows, []string{"parallel edge", fmt.Sprint(ok1)})
	// Self-loop.
	g2, in2, err := gadget.CopyWithExtraEdge(gd, gd.Ports[0], gd.Ports[0], "Garbage", "Garbage")
	if err != nil {
		return nil, err
	}
	p2, err := errorproof.BuildColorClashProof(g2, in2, gd.Ports[0])
	ok2 := err == nil && errorproof.CheckColorClashProof(g2, in2, p2) == nil
	rows = append(rows, []string{"self-loop", fmt.Sprint(ok2)})
	// Soundness: no proof constructible on the valid gadget.
	sound := true
	for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
		if _, err := errorproof.BuildColorClashProof(gd.G, gd.In, v); err == nil {
			sound = false
		}
	}
	rows = append(rows, []string{"no false proof on valid gadget", fmt.Sprint(sound)})
	return &Result{
		ID:    "E-F7",
		Title: "Figure 7: node-edge checkable color-clash proofs (constraint 1a)",
		Table: measure.Table([]string{"case", "proved & verified"}, rows),
	}, nil
}

// Fig8ChainProof reproduces Figure 8: chain proofs for the quadrilateral
// constraint 2d, plus Lemma 9/10 as measured facts: V never lies on valid
// gadgets and proves errors on invalid ones within its O(log n) radius.
func Fig8ChainProof(sc Scale) (*Result, error) {
	var rows [][]string
	// Chain proof soundness on valid gadgets.
	gd, err := gadget.BuildUniform(2, 4)
	if err != nil {
		return nil, err
	}
	sound := true
	for v := graph.NodeID(0); int(v) < gd.G.NumNodes(); v++ {
		if _, err := errorproof.BuildChainProof(gd.G, gd.In, v, 1); err == nil {
			sound = false
		}
	}
	rows = append(rows, []string{"no chain proof on valid gadget (Lemma 9)", fmt.Sprint(sound)})

	// V on corruptions: valid Ψ output everywhere (Lemma 10).
	rng := rand.New(rand.NewSource(3))
	gd3, err := gadget.BuildUniform(3, 4)
	if err != nil {
		return nil, err
	}
	okAll := true
	for _, c := range gadget.StandardCorruptions(gd3, rng) {
		g, in, err := c.Apply(gd3)
		if err != nil {
			return nil, err
		}
		vf := &errorproof.Verifier{Delta: 3}
		out, _, err := vf.Run(g, in, g.NumNodes())
		if err != nil {
			return nil, err
		}
		if lcl.Verify(g, &errorproof.Psi{Delta: 3}, in, out) != nil {
			okAll = false
		}
	}
	rows = append(rows, []string{"V's pointer chains verify on all corruptions (Lemma 10)", fmt.Sprint(okAll)})
	vf := &errorproof.Verifier{Delta: 3}
	rows = append(rows, []string{"V radius at n=1e3 / 1e6", fmt.Sprintf("%d / %d", vf.Radius(1000), vf.Radius(1000000))})
	return &Result{
		ID:    "E-F8",
		Title: "Figure 8: chain proofs and the error-pointer verifier V",
		Table: measure.Table([]string{"check", "result"}, rows),
	}, nil
}

// Thm1Transform measures the padding transform's cost structure: padded
// rounds ≈ inner rounds × dilation + verifier radius (Theorem 1 upper
// bound on Lemma 5 balanced instances).
func Thm1Transform(sc Scale) (*Result, error) {
	var rows [][]string
	for _, base := range sc.paddedBases() {
		inst, err := core.BuildInstance(2, core.InstanceOptions{BaseNodes: base, Seed: int64(base), Balanced: true})
		if err != nil {
			return nil, err
		}
		solver := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
		d, err := solver.SolveDetailed(inst.G, inst.In, 0)
		if err != nil {
			return nil, err
		}
		inner := 0
		if d.InnerCost != nil {
			inner = d.InnerCost.Rounds()
		}
		predicted := d.PsiRadius + (inner+1)*(d.Dilation+1)
		rows = append(rows, []string{
			fmt.Sprint(inst.G.NumNodes()), fmt.Sprint(base), fmt.Sprint(inner),
			fmt.Sprint(d.Dilation), fmt.Sprint(d.PsiRadius),
			fmt.Sprint(d.Cost.Rounds()), fmt.Sprint(predicted),
		})
	}
	return &Result{
		ID:    "E-T1",
		Title: "Theorem 1: padded cost = inner rounds × dilation + verifier radius",
		Table: measure.Table([]string{"N", "base n", "inner rounds", "dilation d", "Ψ radius", "padded rounds", "T·d model"}, rows),
		Notes: []string{"padded rounds track the T(Π,√N)·d(√N) model of Theorem 1"},
	}, nil
}

// Thm6GadgetFamily verifies Definition 2 quantitatively: gadget diameters
// grow like log n and V accepts exactly the family members.
func Thm6GadgetFamily(sc Scale) (*Result, error) {
	heights := []int{2, 4, 6, 8}
	if sc == Full {
		heights = append(heights, 10)
	}
	var rows [][]string
	for _, h := range heights {
		gd, err := gadget.BuildUniform(3, h)
		if err != nil {
			return nil, err
		}
		vf := &errorproof.Verifier{Delta: 3}
		out, cost, err := vf.Run(gd.G, gd.In, gd.NumNodes())
		if err != nil {
			return nil, err
		}
		allOk := errorproof.AllGadOk(out, allNodes(gd.G))
		diam := gd.G.Diameter()
		rows = append(rows, []string{
			fmt.Sprint(h), fmt.Sprint(gd.NumNodes()), fmt.Sprint(diam),
			fmt.Sprintf("%.2f", float64(diam)/math.Log2(float64(gd.NumNodes()))),
			fmt.Sprint(cost.Rounds()), fmt.Sprint(allOk),
		})
	}
	return &Result{
		ID:    "E-T6",
		Title: "Theorem 6: the (log, Δ)-gadget family — diameters and V",
		Table: measure.Table([]string{"height", "n", "diameter", "diam/log2 n", "V rounds", "all GadOk"}, rows),
	}, nil
}

// Thm11Hierarchy reproduces the headline result: Π₁ vs Π₂ deterministic
// and randomized scaling, and the D/R ratio growth.
func Thm11Hierarchy(sc Scale) (*Result, error) {
	reg := sc.regularSizes()
	reps := sc.reps()
	p1Det, err := measure.Sweep("Π₁ det", reg, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewRandomRegular(n, 3, seed, false)
		if err != nil {
			return 0, err
		}
		return solveRounds(sinkless.NewDetSolver(), g, seed)
	})
	if err != nil {
		return nil, err
	}
	p1Rnd, err := measure.Sweep("Π₁ rand", reg, reps, func(n int, seed int64) (int, error) {
		g, err := graph.NewRandomRegular(n, 3, seed, false)
		if err != nil {
			return 0, err
		}
		return solveRounds(sinkless.NewRandSolver(), g, seed+1)
	})
	if err != nil {
		return nil, err
	}
	p2Det, p2Rnd, err := level2Series(sc)
	if err != nil {
		return nil, err
	}
	p3Det, p3Rnd, err := level3Series(sc)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	addRow := func(name, claim string, s measure.Series) {
		fits := measure.BestFit(s.Points)
		rows = append(rows, []string{name, claim, fits[0].Model.Name,
			fmt.Sprintf("%.3f", fits[0].RelRMSE), measure.FormatSeries(s)})
	}
	addRow("Π₁ deterministic", "Θ(log n)", p1Det)
	addRow("Π₁ randomized", "Θ(loglog n)", p1Rnd)
	addRow("Π₂ deterministic", "Θ(log² n)", p2Det)
	addRow("Π₂ randomized", "Θ(log n·loglog n)", p2Rnd)
	addRow("Π₃ deterministic", "Θ(log³ n)", p3Det)
	addRow("Π₃ randomized", "Θ(log² n·loglog n)", p3Rnd)

	ratio := func(det, rnd measure.Series) string {
		out := ""
		for i := range det.Points {
			if i < len(rnd.Points) {
				out += fmt.Sprintf("%.1f ", det.Points[i].Rounds/math.Max(rnd.Points[i].Rounds, 1))
			}
		}
		return out
	}
	notes := []string{
		"Π₁ D/R per size: " + ratio(p1Det, p1Rnd),
		"Π₂ D/R per size: " + ratio(p2Det, p2Rnd),
		"Π₃ D/R per size: " + ratio(p3Det, p3Rnd),
		"the D/R gap widens with n at every level (Θ(log n / loglog n) in the paper)",
		"Π₃ sizes are necessarily small (N ≈ base⁴); its rows witness the recursion, not the asymptotics",
	}
	return &Result{
		ID:    "E-T11",
		Title: "Theorem 11: the hierarchy Πᵢ — polynomial randomness advantage",
		Table: measure.Table([]string{"problem", "paper claim", "best fit", "rel. err", "measured"}, rows),
		Notes: notes,
	}, nil
}

// level3Series sweeps Π₃ on small balanced instances (both solvers);
// level-3 instances square the level-2 size, so bases stay tiny.
func level3Series(sc Scale) (det, rnd measure.Series, err error) {
	lvl, err := core.NewLevel(3)
	if err != nil {
		return det, rnd, err
	}
	bases := []int{4, 6}
	if sc == Full {
		bases = []int{4, 6, 8}
	}
	run := func(solver lcl.Solver, label string) (measure.Series, error) {
		s := measure.Series{Label: label}
		for _, base := range bases {
			inst, err := core.BuildInstance(3, core.InstanceOptions{BaseNodes: base, Seed: int64(base), Balanced: true})
			if err != nil {
				return s, err
			}
			_, cost, err := solver.Solve(inst.G, inst.In, int64(base))
			if err != nil {
				return s, err
			}
			s.Points = append(s.Points, measure.Point{N: inst.G.NumNodes(), Rounds: float64(cost.Rounds())})
		}
		return s, nil
	}
	det, err = run(lvl.Det, "Π₃ det")
	if err != nil {
		return det, rnd, err
	}
	rnd, err = run(lvl.Rand, "Π₃ rand")
	return det, rnd, err
}

// AblationBalance measures the Lemma-5 balance claim: gadget sizes far
// from √N make Π₂ easier, the balanced point is the worst case.
func AblationBalance(sc Scale) (*Result, error) {
	base, err := graph.NewRandomRegular(48, 3, 11, false)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, h := range []int{2, 3, 4, 6, 8} {
		pi, err := core.BuildPadded(base, lcl.NewLabeling(base), core.PadOptions{Delta: 3, GadgetHeight: h})
		if err != nil {
			return nil, err
		}
		solver := core.NewPaddedSolver(sinkless.NewDetSolver(), 3)
		d, err := solver.SolveDetailed(pi.G, pi.In, 0)
		if err != nil {
			return nil, err
		}
		n := float64(pi.G.NumNodes())
		norm := float64(d.Cost.Rounds()) / (math.Log2(n) * math.Log2(n))
		rows = append(rows, []string{
			fmt.Sprint(h), fmt.Sprint(pi.G.NumNodes()), fmt.Sprint(len(pi.NodesOf[0])),
			fmt.Sprint(d.Cost.Rounds()), fmt.Sprintf("%.3f", norm),
		})
	}
	return &Result{
		ID:    "E-A1",
		Title: "Ablation: gadget-size balance (Lemma 5)",
		Table: measure.Table([]string{"height", "N", "gadget nodes", "padded rounds", "rounds/log²N"}, rows),
		Notes: []string{"rounds/log²N peaks near the balanced gadget size (gadget ≈ base ≈ √N)"},
	}, nil
}

// AblationRandRepair quantifies the two phases of the randomized sinkless
// solver: random claims alone leave sinks; path-flip repair removes them
// within a tiny radius.
func AblationRandRepair(sc Scale) (*Result, error) {
	var rows [][]string
	for _, n := range sc.regularSizes() {
		g, err := graph.NewRandomRegular(n, 3, int64(n), false)
		if err != nil {
			return nil, err
		}
		// Phase 1 only: count sinks after random claims.
		sinks := countPhase1Sinks(g, 1)
		out, cost, err := sinkless.NewRandSolver().Solve(g, lcl.NewLabeling(g), 1)
		if err != nil {
			return nil, err
		}
		finalSinks := 0
		for _, d := range sinkless.OutDegrees(g, out) {
			if d == 0 {
				finalSinks++
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(sinks), fmt.Sprint(finalSinks), fmt.Sprint(cost.Rounds()),
		})
	}
	return &Result{
		ID:    "E-A2",
		Title: "Ablation: randomized solver — claims alone vs claims+repair",
		Table: measure.Table([]string{"n", "sinks after claims", "sinks after repair", "total rounds"}, rows),
		Notes: []string{"defects are a constant fraction ~n/Δ^Δ after one round; repair radius stays tiny"},
	}, nil
}

// countPhase1Sinks replays the claim phase of the randomized solver.
func countPhase1Sinks(g *graph.Graph, seed int64) int {
	// Re-derive phase 1 deterministically: random claim per node, then
	// canonical resolution, counting out-degree-0 nodes.
	type claim struct {
		has bool
		h   graph.Half
	}
	claims := make([]claim, g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		rng := engine.DeriveRNG(seed, g.ID(v))
		claims[v] = claim{has: true, h: g.HalfAt(v, int32(rng.Intn(d)))}
	}
	outDeg := make([]int, g.NumNodes())
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		hu := graph.Half{Edge: e, Side: graph.SideU}
		hv := graph.Half{Edge: e, Side: graph.SideV}
		cu := claims[ed.U.Node].has && claims[ed.U.Node].h == hu
		cv := claims[ed.V.Node].has && claims[ed.V.Node].h == hv
		switch {
		case cu && !cv:
			outDeg[ed.U.Node]++
		case cv && !cu:
			outDeg[ed.V.Node]++
		default:
			if g.ID(ed.U.Node) >= g.ID(ed.V.Node) {
				outDeg[ed.U.Node]++
			} else {
				outDeg[ed.V.Node]++
			}
		}
	}
	sinks := 0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) > 0 && outDeg[v] == 0 {
			sinks++
		}
	}
	return sinks
}

func lclNew(g *graph.Graph) *lcl.Labeling { return lcl.NewLabeling(g) }

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// All runs every experiment at the given scale, fanned across the
// default parallel harness (results stay in Registry order).
func All(sc Scale) ([]*Result, error) {
	return (&Harness{Scale: sc}).Run()
}
