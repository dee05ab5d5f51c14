package core

import (
	"fmt"

	"locallab/internal/adversary"
	"locallab/internal/engine"
	"locallab/internal/errorproof"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// EngineRunStats is the measured engine profile of an engine-backed
// padded solve: one session for the Ψ verifier machines, one for the
// payload-relay session carrying the inner machines' messages, plus —
// for tower solvers whose inner is itself an EnginePaddedSolver — the
// merged profile of the nested per-component engine runs. All profiles
// are deterministic for a given instance — identical across every
// worker/shard geometry.
type EngineRunStats struct {
	Psi   engine.Stats
	Relay engine.Stats
	// RelayWords is the relay session's bandwidth: payload words handed to
	// the transport, counted at the senders (RelayRun.Words). Native
	// executions move O(1) words per virtual edge per protocol round;
	// gather executions move knowledge vectors every physical round.
	RelayWords int64
	// RelayNative records whether the relay session ran native
	// constant-bandwidth port machines (true) or gather machines (false).
	RelayNative bool
	// Depth is the number of engine-run padding layers in this solve:
	// 1 for a plain level-2 solve, level−1 for a flattened tower.
	Depth int
	// Inner is the merged profile of the nested engine runs one level
	// down (nil when the inner solver is a leaf decision function).
	// Components solve concurrently in the LOCAL model, so round counts
	// merge by maximum while deliveries and words add.
	Inner *EngineRunStats
}

// Rounds is the total measured physical rounds of the solve, nested
// sessions included.
func (s *EngineRunStats) Rounds() int {
	r := s.Psi.Rounds + s.Relay.Rounds
	if s.Inner != nil {
		r += s.Inner.Rounds()
	}
	return r
}

// Deliveries is the total messages delivered across all sessions,
// nested sessions included.
func (s *EngineRunStats) Deliveries() int64 {
	d := s.Psi.Deliveries + s.Relay.Deliveries
	if s.Inner != nil {
		d += s.Inner.Deliveries()
	}
	return d
}

// TotalRelayWords is the relay bandwidth summed over every nesting level.
func (s *EngineRunStats) TotalRelayWords() int64 {
	w := s.RelayWords
	if s.Inner != nil {
		w += s.Inner.TotalRelayWords()
	}
	return w
}

// fold merges another run's profile into s as a concurrent sibling
// (components of one virtual graph solve in parallel in the LOCAL
// model): rounds take the maximum, deliveries and words add, and the
// nested profiles merge recursively.
func (s *EngineRunStats) fold(o *EngineRunStats) {
	if o.Psi.Rounds > s.Psi.Rounds {
		s.Psi.Rounds = o.Psi.Rounds
	}
	s.Psi.Deliveries += o.Psi.Deliveries
	if o.Relay.Rounds > s.Relay.Rounds {
		s.Relay.Rounds = o.Relay.Rounds
	}
	s.Relay.Deliveries += o.Relay.Deliveries
	s.RelayWords += o.RelayWords
	s.RelayNative = s.RelayNative || o.RelayNative
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	if o.Inner != nil {
		if s.Inner == nil {
			s.Inner = &EngineRunStats{}
		}
		s.Inner.fold(o.Inner)
	}
}

// EnginePaddedSolver is the Lemma-4 algorithm executing end to end on the
// sharded message-passing engine: the Ψ verifier runs as a fixpoint
// exchange of predicate vectors (errorproof.Verifier.RunEngine), port
// validity is a constant-radius local decision on the converged Ψ
// outputs, and the inner algorithm runs as native machines over the
// payload relay plane (RunRelay) — its knowledge payloads carried
// through gadget interiors and across port edges under the d+1-round
// super-round schedule, with no centralized inner Solve call anywhere in
// the pipeline. The output labeling is byte-identical to the sequential
// PaddedSolver oracle (the assembly stages are shared code and the
// native inner execution is differential-tested against the oracle),
// while Cost charges the rounds actually executed: the Ψ radius plus the
// measured relay-session length for every valid-gadget node, so the
// measured engine rounds never exceed the charged bound.
type EnginePaddedSolver struct {
	Delta int
	Inner lcl.Solver
	// Engine configures the worker pool; nil uses the package defaults.
	Engine *engine.Engine
	// ForceGather disables native port-machine selection, running the
	// inner solver over gather machines even when a native protocol
	// exists. Benchmarks use it to compare the two relay executions.
	ForceGather bool
	// LastStats is the engine profile of the most recent Solve.
	LastStats EngineRunStats

	// accum folds the profiles of every Solve since the last resetAccum.
	// When this solver is the inner of an outer EnginePaddedSolver (a
	// flattened tower), the outer resets it before its relay session and
	// collects it after the per-component decision functions have run —
	// no locking needed, because finishComponents invokes them
	// sequentially after the outer session has completed.
	accum     EngineRunStats
	accumRuns int

	// relayPlan is the delivery-fault plan installed by SetRelayFault
	// (nil in production): the adversary's hook into the relay plane.
	relayPlan *adversary.Plan
}

// resetAccum clears the nested-run accumulator.
func (s *EnginePaddedSolver) resetAccum() {
	s.accum = EngineRunStats{}
	s.accumRuns = 0
}

// takeAccum returns the accumulated profile (nil when no run folded in).
func (s *EnginePaddedSolver) takeAccum() *EngineRunStats {
	if s.accumRuns == 0 {
		return nil
	}
	merged := s.accum
	return &merged
}

var _ lcl.Solver = (*EnginePaddedSolver)(nil)

// NewEnginePaddedSolver constructs the engine-backed solver.
func NewEnginePaddedSolver(inner lcl.Solver, delta int, eng *engine.Engine) *EnginePaddedSolver {
	return &EnginePaddedSolver{Delta: delta, Inner: inner, Engine: eng}
}

// Name implements lcl.Solver.
func (s *EnginePaddedSolver) Name() string { return "padded-engine(" + s.Inner.Name() + ")" }

// Randomized implements lcl.Solver.
func (s *EnginePaddedSolver) Randomized() bool { return s.Inner.Randomized() }

// Solve implements lcl.Solver.
func (s *EnginePaddedSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	d, err := s.SolveDetailed(g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	return d.Out, d.Cost, nil
}

// SolveDetailed runs the engine-backed pipeline and returns diagnostics,
// including the measured engine profile in Detail.Engine.
func (s *EnginePaddedSolver) SolveDetailed(g *graph.Graph, in *lcl.Labeling, seed int64) (*Detail, error) {
	gadIn, piIn, scope, err := decodeInputs(g, in)
	if err != nil {
		return nil, fmt.Errorf("engine padded solve: %w", err)
	}
	n := g.NumNodes()
	cost := local.NewCost(n)

	// Step 1: Ψ by real message exchange on the engine.
	vf := &errorproof.Verifier{Delta: s.Delta, Scope: scope}
	psiOut, psiCost, psiStats, err := vf.RunEngine(s.Engine, g, gadIn, n)
	if err != nil {
		return nil, fmt.Errorf("engine padded solve verifier: %w", err)
	}
	cost.Merge(psiCost)

	// Steps 2-3: port validity and virtual contraction, shared code with
	// the sequential oracle.
	plan, err := planPadded(g, gadIn, piIn, scope, psiOut, s.Delta)
	if err != nil {
		return nil, err
	}

	// Step 4: the inner algorithm runs over the relay plane. Inners with a
	// native constant-bandwidth protocol (nativeFactoryFor) run as port
	// machines — O(1) words per virtual edge per protocol round, slot-
	// routed host-to-port transport (native.go); everything else falls
	// back to gather machines flooding knowledge vectors (relay.go). Both
	// pin per-virtual-node RNG streams by virtual identifier, so every
	// worker/shard geometry — and both executions — produce the same
	// bytes.
	stats := EngineRunStats{Psi: psiStats, Depth: 1}
	var virtOut *lcl.Labeling
	innerCost := local.NewCost(plan.vg.NumVirtualNodes())
	if plan.vg.NumVirtualNodes() > 0 {
		table := NewFactTable(plan.vg)
		// Flattened tower: when the inner solver is itself engine-backed,
		// each gather machine's decision function runs a nested engine
		// session on its reconstructed component — the recursion is
		// message passing all the way down. The accumulator collects the
		// per-component profiles so this level's stats nest them.
		nested, _ := s.Inner.(*EnginePaddedSolver)
		if nested != nil {
			nested.resetAccum()
		}
		// A delivery-fault plan (SetRelayFault) installs an adversary
		// interceptor on the relay session and pins the gather execution,
		// whose knowledge-word payloads are the plane the plan's codec
		// rewrites.
		var itc engine.Interceptor[relayMsg]
		if s.relayPlan != nil {
			if s.relayPlan.Slots() != g.NumPorts() {
				return nil, fmt.Errorf("engine padded solve: relay fault plan covers %d slots, graph has %d ports",
					s.relayPlan.Slots(), g.NumPorts())
			}
			itc = adversary.NewInterceptor(s.relayPlan, relayCodec())
		}
		var relay *RelayRun
		if nmk := nativeFactoryFor(s.Inner, plan.vg); nmk != nil && !s.ForceGather && s.relayPlan == nil {
			relay, err = RunRelayNative(s.Engine, g, scope, plan.vg, table, nmk, seed)
			stats.RelayNative = true
		} else {
			relay, err = RunRelay(s.Engine, g, scope, plan.vg, table, GatherFactory(s.Inner), plan.dilation, plan.compEcc, seed, itc)
		}
		if err != nil {
			return nil, fmt.Errorf("engine padded solve: %w", err)
		}
		virtOut = relay.Out
		for vi, r := range relay.Rounds {
			innerCost.Charge(graph.NodeID(vi), r)
		}
		stats.Relay = relay.Stats
		stats.RelayWords = relay.Words
		if nested != nil {
			if inner := nested.takeAccum(); inner != nil {
				stats.Inner = inner
				stats.Depth = 1 + inner.Depth
			}
		}
	}

	// Step 5: shared assembly; every valid-gadget node is charged the
	// rounds it actually executed — Ψ radius plus the measured relay
	// session length, nested tower sessions included.
	simRounds := stats.Relay.Rounds
	if stats.Inner != nil {
		simRounds += stats.Inner.Rounds()
	}
	d, err := assemblePadded(g, plan, virtOut, innerCost, psiCost, cost, s.Delta,
		func(graph.NodeID, int) int { return simRounds })
	if err != nil {
		return nil, err
	}
	d.PsiRadius = vf.Radius(n)
	d.Engine = &stats
	s.LastStats = stats
	s.accum.fold(&stats)
	s.accumRuns++
	return d, nil
}
