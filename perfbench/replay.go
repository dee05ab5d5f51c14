package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"locallab/internal/coloring"
	"locallab/internal/core"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
	"locallab/internal/netdecomp"
	"locallab/internal/scenario"
	"locallab/internal/sinkless"
	"locallab/internal/solver"
)

// layerPass collects one replay pass: span name → summed nanoseconds,
// and per-layer metric name → summed value for counts and allocations.
type layerPass map[string]float64

// call times f as a span under parent and adds its duration to p[name].
func (t *tracer) call(p layerPass, parent int, cell, name string, f func() error) (span, error) {
	id := t.begin(name, cell, parent)
	err := f()
	s := t.end(id)
	p[name] += float64(s.dur().Nanoseconds())
	return s, err
}

// replayCell is one cell rebuilt from the layers' public entry points,
// outside the solver registry, so each layer's share of a re-solve can
// be timed from outside. Its checksum must equal the registry's.
type replayCell struct {
	req   scenario.CellRequest
	id    string
	pass  func(t *tracer, p layerPass, root int) (uint64, error)
	close func()
}

// newReplayCell builds the cell's instance (a spanned call into
// core.BuildInstance or graph.BuildFamily) and returns its replay.
func newReplayCell(req scenario.CellRequest, t *tracer, p layerPass) (*replayCell, error) {
	// Same engine construction as scenario.NewRunner; entries that do
	// not run on the engine still get one for the separate Ψ call.
	w := max(req.Engine.Workers, 1)
	eng := engine.New(engine.Options{Workers: w, Shards: req.Engine.Shards})
	rc := &replayCell{req: req, id: cellID(req), close: func() {}}
	root := t.begin("setup", rc.id, -1)
	defer t.end(root)
	var err error
	if req.Family == scenario.PaddedFamily {
		err = paddedReplay(rc, eng, t, p, root)
	} else {
		err = flatReplay(rc, eng, t, p, root)
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", rc.id, err)
	}
	return rc, nil
}

// paddedSolver returns the padded solve a registry entry runs.
func paddedSolver(name string, lvl *core.Level, eng *engine.Engine) (func(*graph.Graph, *lcl.Labeling, int64) (*core.Detail, error), error) {
	seq := func(s lcl.Solver) (func(*graph.Graph, *lcl.Labeling, int64) (*core.Detail, error), error) {
		ps, ok := s.(*core.PaddedSolver)
		if !ok {
			return nil, fmt.Errorf("level %d has no sequential padded solver", lvl.Index)
		}
		return ps.SolveDetailed, nil
	}
	switch name {
	case "pi2-det", "pi3-det", "pi2-rand", "pi3-rand":
		det, rnd, err := lvl.EngineSolvers(eng)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "-det") {
			return det.SolveDetailed, nil
		}
		return rnd.SolveDetailed, nil
	case "pi2-rand-native", "pi2-rand-gather":
		s := core.NewEnginePaddedSolver(sinkless.NewMessageSolver(), core.LevelDelta(2), eng)
		s.ForceGather = name == "pi2-rand-gather"
		return s.SolveDetailed, nil
	case "pi2-det-oracle", "pi3-det-oracle":
		return seq(lvl.Det)
	case "pi2-rand-oracle", "pi3-rand-oracle":
		return seq(lvl.Rand)
	case "pi2-rand-native-oracle":
		return core.NewPaddedSolver(sinkless.NewMessageSolver(), core.LevelDelta(2)).SolveDetailed, nil
	}
	return nil, fmt.Errorf("no padded replay for solver %q", name)
}

// paddedReplay replays a padded cell: BuildInstance once, then per pass
// GadInputs/PiInputs → Verifier.RunEngine → SolveDetailed → Level.Verify
// → LabelingChecksum. SolveDetailed decodes the labels and runs Ψ again
// internally; core.relay_assemble_ms is derived from that.
func paddedReplay(rc *replayCell, eng *engine.Engine, t *tracer, p layerPass, root int) error {
	req := rc.req
	level := 2
	if strings.HasPrefix(req.Solver, "pi3") {
		level = 3
	}
	lvl, err := core.NewLevel(level)
	if err != nil {
		return err
	}
	solve, err := paddedSolver(req.Solver, lvl, eng)
	if err != nil {
		return err
	}
	var inst *core.Instance
	if _, err := t.call(p, root, rc.id, "core.build", func() (err error) {
		inst, err = core.BuildInstance(level, core.InstanceOptions{BaseNodes: req.N, Seed: req.Seed, Balanced: true})
		return err
	}); err != nil {
		return err
	}
	g := inst.G
	rc.pass = func(t *tracer, p layerPass, root int) (uint64, error) {
		in := inst.In.Clone()
		var gadIn *lcl.Labeling
		var scope func(graph.EdgeID) bool
		if _, err := t.call(p, root, rc.id, "core.decode", func() (err error) {
			if gadIn, err = core.GadInputs(g, in); err != nil {
				return err
			}
			if _, err = core.PiInputs(g, in); err != nil {
				return err
			}
			scope = core.GadScope(g, in)
			return nil
		}); err != nil {
			return 0, err
		}
		if _, err := t.call(p, root, rc.id, "errorproof.psi", func() error {
			vf := &errorproof.Verifier{Delta: core.LevelDelta(level), Scope: scope}
			_, _, st, err := vf.RunEngine(eng, g, gadIn, g.NumNodes())
			p["errorproof.psi_rounds"] += float64(st.Rounds)
			p["errorproof.psi_deliveries"] += float64(st.Deliveries)
			return err
		}); err != nil {
			return 0, err
		}
		var d *core.Detail
		sp, err := t.call(p, root, rc.id, "core.solve", func() (err error) {
			d, err = solve(g, in, req.Seed)
			return err
		})
		if err != nil {
			return 0, err
		}
		p["core.solve_alloc_mb"] += mb(sp.AllocBytes)
		if d.Engine != nil {
			p["engine.rounds"] += float64(d.Engine.Rounds())
			p["engine.deliveries"] += float64(d.Engine.Deliveries())
			p["engine.busy"] += float64(sp.dur().Nanoseconds())
			for k, s := 1, d.Engine; s != nil; k, s = k+1, s.Inner {
				p[fmt.Sprintf("core.level%d.rounds", k)] += float64(s.Psi.Rounds + s.Relay.Rounds)
				p[fmt.Sprintf("core.level%d.deliveries", k)] += float64(s.Psi.Deliveries + s.Relay.Deliveries)
				p[fmt.Sprintf("core.level%d.relay_words", k)] += float64(s.RelayWords)
			}
		}
		sp, err = t.call(p, root, rc.id, "core.verify", func() error { return lvl.Verify(g, in, d.Out) })
		if err != nil {
			return 0, err
		}
		p["core.verify_alloc_mb"] += mb(sp.AllocBytes)
		var sum uint64
		_, err = t.call(p, root, rc.id, "solver.checksum", func() error {
			sum = solver.LabelingChecksum(d.Out)
			return nil
		})
		return sum, err
	}
	return nil
}

// flatReplay replays a plain-graph cell: BuildFamily once, then per pass
// the solver's Solve (on a pinned engine session where the registry
// pins one) → lcl.Verify → LabelingChecksum; sinkless-det also gets a
// separate graph.ShortestCycles call, the step that dominates it.
func flatReplay(rc *replayCell, eng *engine.Engine, t *tracer, p layerPass, root int) error {
	req := rc.req
	var g *graph.Graph
	if _, err := t.call(p, root, rc.id, "graph.build", func() (err error) {
		g, err = graph.BuildFamily(req.Family, req.N, req.Seed)
		return err
	}); err != nil {
		return err
	}
	var (
		name  string
		solve func(in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error)
		prob  lcl.Problem
		stats func() engine.Stats
		pre   func(t *tracer, p layerPass, root int) error
	)
	session := func(s lcl.Solver) error {
		solve = func(in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) { return s.Solve(g, in, seed) }
		ss, ok := s.(lcl.SessionSolver)
		if !ok {
			return nil
		}
		sess, err := ss.NewSolverSession(g)
		switch {
		case err == nil:
			solve, rc.close = sess.Solve, sess.Close
		case !errors.Is(err, lcl.ErrNoSession):
			return err
		}
		return nil
	}
	var err error
	switch req.Solver {
	case "cole-vishkin":
		s := &coloring.CVSolver{MaxRounds: 1 << 20, Engine: eng}
		name, prob, stats = "coloring.cv", coloring.Three{}, func() engine.Stats { return s.LastStats }
		err = session(s)
	case "sinkless-det":
		s := sinkless.NewDetSolver()
		name, prob = "sinkless.det", sinkless.Problem{}
		pre = func(t *tracer, p layerPass, root int) error {
			_, err := t.call(p, root, rc.id, "graph.cycles", func() error {
				g.ShortestCycles(s.Opts.MaxCycleLen)
				return nil
			})
			return err
		}
		err = session(s)
	case "sinkless-rand":
		name, prob = "sinkless.rand", sinkless.Problem{}
		err = session(sinkless.NewRandSolver())
	case "sinkless-msg":
		s := &sinkless.MessageSolver{MaxRounds: 4096, Engine: eng}
		name, prob, stats = "sinkless.msg", sinkless.Problem{}, func() engine.Stats { return s.LastStats }
		err = session(s)
	case "netdecomp":
		rc.pass = func(t *tracer, p layerPass, root int) (uint64, error) {
			var dec *netdecomp.Decomposition
			if _, err := t.call(p, root, rc.id, "netdecomp.build", func() (err error) {
				dec, _, err = netdecomp.Build(g, netdecomp.Options{})
				return err
			}); err != nil {
				return 0, err
			}
			if _, err := t.call(p, root, rc.id, "netdecomp.verify", func() error { return netdecomp.Verify(g, dec) }); err != nil {
				return 0, err
			}
			var sum uint64
			_, err := t.call(p, root, rc.id, "solver.checksum", func() error {
				sum = solver.DecompositionChecksum(dec)
				return nil
			})
			return sum, err
		}
		return nil
	default:
		return fmt.Errorf("no replay for solver %q", req.Solver)
	}
	if err != nil {
		return err
	}
	rc.pass = func(t *tracer, p layerPass, root int) (uint64, error) {
		if pre != nil {
			if err := pre(t, p, root); err != nil {
				return 0, err
			}
		}
		in := lcl.NewLabeling(g)
		var out *lcl.Labeling
		sp, err := t.call(p, root, rc.id, name, func() (err error) {
			out, _, err = solve(in, req.Seed)
			return err
		})
		if err != nil {
			return 0, err
		}
		if stats != nil {
			st := stats()
			p["engine.rounds"] += float64(st.Rounds)
			p["engine.deliveries"] += float64(st.Deliveries)
			p["engine.busy"] += float64(sp.dur().Nanoseconds())
		}
		if _, err := t.call(p, root, rc.id, "lcl.verify", func() error { return lcl.Verify(g, prob, in, out) }); err != nil {
			return 0, err
		}
		var sum uint64
		_, err = t.call(p, root, rc.id, "solver.checksum", func() error {
			sum = solver.LabelingChecksum(out)
			return nil
		})
		return sum, err
	}
	return nil
}

// mb converts bytes to mebibytes.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// replayRun is the traced phase: replay passes over every cell for at
// least d, asserting each replay checksum equals the registry's.
type replayRun struct {
	passes []layerPass
	wall   []float64 // traced pass wall time, ms
	build  []layerPass
	tally  tally
	errs   []string
}

// replay builds the cells' replays setupRepeats times (keeping the last)
// and then runs traced passes for d.
func replay(t *tracer, reqs []scenario.CellRequest, want map[scenario.CellRequest]string, d time.Duration) (*replayRun, error) {
	out := &replayRun{}
	var cells []*replayCell
	for k := 0; k < setupRepeats; k++ {
		for _, c := range cells {
			c.close()
		}
		cells = cells[:0]
		p := layerPass{}
		for _, r := range reqs {
			rc, err := newReplayCell(r, t, p)
			if err != nil {
				return nil, err
			}
			cells = append(cells, rc)
		}
		out.build = append(out.build, p)
	}
	defer func() {
		for _, c := range cells {
			c.close()
		}
	}()
	start := time.Now()
	for len(out.passes) < minReplayPasses || time.Since(start) < d {
		p := layerPass{}
		t0 := time.Now()
		for _, c := range cells {
			root := t.begin("cell", c.id, -1)
			sum, err := c.pass(t, p, root)
			t.end(root)
			out.tally.attempted++
			got := fmt.Sprintf("%016x", sum)
			switch {
			case err != nil:
				out.tally.errors++
				out.errs = append(out.errs, fmt.Sprintf("replay %s: %v", c.id, err))
			case got != want[c.req]:
				out.tally.mismatches++
				out.errs = append(out.errs, fmt.Sprintf("replay %s: checksum %s, registry %s", c.id, got, want[c.req]))
			}
		}
		out.wall = append(out.wall, ms(time.Since(t0)))
		out.passes = append(out.passes, p)
	}
	return out, nil
}
