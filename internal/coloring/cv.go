package coloring

import (
	"fmt"
	"math/bits"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// cvMsg is the Cole–Vishkin message: the current color and the sender's
// identifier (for elimination tie-breaks), exchanged through the typed
// engine core's flat []cvMsg planes.
type cvMsg struct {
	Color int64
	ID    int64
}

// cvSchedule is the shared reduction-width schedule. It depends only on
// the 63-bit identifier width, so all machines share one package-level
// copy and track their position with an index.
var cvSchedule = reductionSchedule(63)

// cvTypedMachine runs the two-port Cole–Vishkin tuple reduction on
// cycles: in each reduction round a node replaces its color by the pair
// of (first-differing-bit index, own bit) tuples against both neighbors,
// shrinking the palette from 2^W to (2W)^2; properness is preserved
// against both neighbors. After the fixed schedule, surviving colors > 3
// are eliminated greedily: local (color, ID)-maxima among big-colored
// nodes recolor into {1,2,3}. It allocates nothing, Init included.
type cvTypedMachine struct {
	id       int64
	color    int64
	schedIdx int
	nbrs     [2]cvMsg
	haveNbrs bool
	started  bool
}

var _ engine.TypedMachine[cvMsg] = (*cvTypedMachine)(nil)

// reductionSchedule computes the shared width schedule from the identifier
// width: W -> bitlen((2W)^2) until it stabilizes. All nodes derive the
// same schedule, so they stay in lockstep without coordination.
func reductionSchedule(idWidth int) []int {
	var sched []int
	w := idWidth
	for {
		sched = append(sched, w)
		next := bits.Len64(uint64(2*w) * uint64(2*w))
		if next >= w {
			return sched
		}
		w = next
	}
}

func (m *cvTypedMachine) Init(info engine.NodeInfo) {
	m.id = info.ID
	m.color = info.ID // initial coloring: identifiers (proper by uniqueness)
	m.schedIdx = 0
	m.haveNbrs = false
	m.started = false
}

func (m *cvTypedMachine) Round(recv, send []cvMsg) bool {
	if m.started {
		// From the second round on both ports always carry a fresh
		// neighbor message (every machine sends on every port every
		// round), so no presence probing is needed.
		m.nbrs[0] = recv[0]
		m.nbrs[1] = recv[1]
		m.haveNbrs = true
		m.step()
	}
	m.started = true
	out := cvMsg{Color: m.color, ID: m.id}
	send[0] = out
	send[1] = out
	return m.haveNbrs && m.color <= 3 && m.nbrs[0].Color <= 3 && m.nbrs[1].Color <= 3
}

// step performs one state transition given fresh neighbor colors.
func (m *cvTypedMachine) step() {
	if m.schedIdx < len(cvSchedule)-1 {
		w := cvSchedule[m.schedIdx]
		m.schedIdx++
		v0 := tupleAgainst(m.color, m.nbrs[0].Color, w)
		v1 := tupleAgainst(m.color, m.nbrs[1].Color, w)
		m.color = int64(v0)*int64(2*w) + int64(v1) + 4 // +4 keeps reduction colors out of the final palette
		return
	}
	// Elimination phase: recolor if > 3 and locally maximal by
	// (color, ID) among big-colored nodes.
	if m.color <= 3 {
		return
	}
	for _, nb := range m.nbrs {
		if nb.Color > m.color || (nb.Color == m.color && nb.ID > m.id) {
			return // a bigger neighbor goes first
		}
	}
	for c := int64(1); c <= 3; c++ {
		if c != m.nbrs[0].Color && c != m.nbrs[1].Color {
			m.color = c
			return
		}
	}
}

// tupleAgainst encodes (first differing bit index, own bit) against one
// neighbor color, a value in [0, 2w).
func tupleAgainst(own, other int64, w int) int {
	diff := uint64(own ^ other)
	i := bits.TrailingZeros64(diff)
	if diff == 0 || i >= w {
		i = w - 1 // cannot happen between properly colored neighbors; defensive
	}
	b := int((own >> uint(i)) & 1)
	return 2*i + b
}

// CVSolver three-colors disjoint unions of simple cycles with the
// Cole–Vishkin machine on the engine's typed core — zero steady-state
// allocations end to end; the measured rounds follow the Θ(log* n) class
// (a constant for all feasible n, since the reduction schedule collapses
// any 63-bit palette in four steps).
type CVSolver struct {
	// MaxRounds caps the runtime (elimination chains are short in
	// practice; the cap only guards against adversarial inputs).
	MaxRounds int
	// Engine overrides the execution engine; nil uses the package-level
	// engine defaults (sharded worker pool).
	Engine *engine.Engine
	// LastStats is the execution profile of the most recent successful
	// Solve (see engine.Stats). Callers that read it must not share one
	// solver across goroutines.
	LastStats engine.Stats
}

var _ lcl.Solver = &CVSolver{}

// NewCVSolver returns a solver with a generous round cap.
func NewCVSolver() *CVSolver { return &CVSolver{MaxRounds: 1 << 20} }

// Name implements lcl.Solver.
func (s *CVSolver) Name() string { return "cycle-3coloring-cole-vishkin" }

// Randomized implements lcl.Solver.
func (s *CVSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (s *CVSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	// A one-shot session on the typed engine core.
	sess, err := s.NewSolverSession(g)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	return sess.Solve(in, seed)
}

// cvFinish validates the final palette and assembles the labeling and
// cost.
func cvFinish(g *graph.Graph, colors []int64, rounds int) (*lcl.Labeling, *local.Cost, error) {
	out := lcl.NewLabeling(g)
	for v, c := range colors {
		if c < 1 || c > 3 {
			return nil, nil, fmt.Errorf("cole-vishkin: node %d finished with color %d", v, c)
		}
		out.Node[v] = ColorLabel(int(c))
	}
	cost := local.NewCost(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		cost.Charge(graph.NodeID(v), rounds)
	}
	return out, cost, nil
}

// CVSession pins a Cole–Vishkin execution to one cycle graph: the typed
// machines and the engine session (flat message planes, shard table,
// worker pool) are allocated once and reused across Solve calls through
// engine.Session.Reset, so repeated solves of the same instance skip all
// session construction. Not safe for concurrent use.
type CVSession struct {
	s        *CVSolver
	g        *graph.Graph
	machines []cvTypedMachine
	sess     *engine.Session[cvMsg]
}

var _ lcl.SolverSession = (*CVSession)(nil)

// NewSolverSession implements lcl.SessionSolver.
func (s *CVSolver) NewSolverSession(g *graph.Graph) (lcl.SolverSession, error) {
	if err := RequireCycleGraph(g); err != nil {
		return nil, fmt.Errorf("cole-vishkin: %w", err)
	}
	n := g.NumNodes()
	cs := &CVSession{s: s, g: g, machines: make([]cvTypedMachine, n)}
	typed := make([]engine.TypedMachine[cvMsg], n)
	for v := range typed {
		typed[v] = &cs.machines[v]
	}
	sess, err := engine.NewCore[cvMsg](s.Engine.Options()).NewSession(g, typed)
	if err != nil {
		return nil, err
	}
	cs.sess = sess
	return cs, nil
}

// Solve implements lcl.SolverSession. The input labeling is unused (the
// problem has no input labels) and the seed is ignored by this
// deterministic solver, exactly as in CVSolver.Solve.
func (cs *CVSession) Solve(_ *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	stats, err := cs.sess.Run(seed, false, cs.s.MaxRounds)
	if err != nil {
		return nil, nil, fmt.Errorf("cole-vishkin runtime: %w", err)
	}
	colors := make([]int64, len(cs.machines))
	for v := range cs.machines {
		colors[v] = cs.machines[v].color
	}
	cs.s.LastStats = stats
	return cvFinish(cs.g, colors, stats.Rounds)
}

// Close releases the pinned engine session's worker pool.
func (cs *CVSession) Close() { cs.sess.Close() }

// MISSolver computes a maximal independent set on cycles by reducing to
// 3-coloring and then two greedy rounds (color class 1 joins; classes 2
// and 3 join when no earlier neighbor joined). Θ(log* n).
type MISSolver struct {
	cv *CVSolver
	// Engine overrides the execution engine of the underlying coloring
	// stage; nil uses the package-level engine defaults.
	Engine *engine.Engine
}

var _ lcl.Solver = &MISSolver{}

// NewMISSolver returns the solver.
func NewMISSolver() *MISSolver { return &MISSolver{cv: NewCVSolver()} }

// Name implements lcl.Solver.
func (s *MISSolver) Name() string { return "cycle-mis-via-coloring" }

// Randomized implements lcl.Solver.
func (s *MISSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (s *MISSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	if s.cv == nil {
		s.cv = NewCVSolver()
	}
	s.cv.Engine = s.Engine
	colored, cost, err := s.cv.Solve(g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	out := lcl.NewLabeling(g)
	inSet := make([]bool, g.NumNodes())
	for round, col := range []lcl.Label{Color1, Color2, Color3} {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if colored.Node[v] != col {
				continue
			}
			free := true
			for _, h := range g.Halves(v) {
				if inSet[g.Edge(h.Edge).Other(h.Side).Node] {
					free = false
					break
				}
			}
			inSet[v] = free
		}
		_ = round
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if inSet[v] {
			out.Node[v] = InSet
		} else {
			out.Node[v] = OutSet
		}
		cost.Charge(v, cost.Radius(v)+2) // two greedy join rounds
	}
	return out, cost, nil
}

// TrivialSolver solves Trivial in zero rounds.
type TrivialSolver struct{}

var _ lcl.Solver = TrivialSolver{}

// Name implements lcl.Solver.
func (TrivialSolver) Name() string { return "trivial" }

// Randomized implements lcl.Solver.
func (TrivialSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (TrivialSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	out := lcl.NewLabeling(g)
	for v := range out.Node {
		out.Node[v] = LabelOK
	}
	return out, local.NewCost(g.NumNodes()), nil
}

// GlobalOrientationSolver solves ConsistentOrientation by full gathering:
// each node learns its whole component (diameter-many rounds, Θ(n) on a
// cycle) and orients along the canonical traversal from the minimum-ID
// node toward its smaller neighbor.
type GlobalOrientationSolver struct{}

var _ lcl.Solver = GlobalOrientationSolver{}

// Name implements lcl.Solver.
func (GlobalOrientationSolver) Name() string { return "cycle-orientation-global" }

// Randomized implements lcl.Solver.
func (GlobalOrientationSolver) Randomized() bool { return false }

// Solve implements lcl.Solver.
func (GlobalOrientationSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	if err := RequireCycleGraph(g); err != nil {
		return nil, nil, fmt.Errorf("global orientation: %w", err)
	}
	out := lcl.NewLabeling(g)
	cost := local.NewCost(g.NumNodes())
	comps, _ := g.Components()
	for _, nodes := range comps {
		// Canonical start: minimum identifier; canonical direction: its
		// incident edge with the smaller edge ID.
		start := nodes[0]
		for _, v := range nodes {
			if g.ID(v) < g.ID(start) {
				start = v
			}
		}
		h := g.Halves(start)[0]
		if g.Halves(start)[1].Edge < h.Edge {
			h = g.Halves(start)[1]
		}
		// Walk around the cycle marking the exit half of each node out.
		cur := start
		for i := 0; i < len(nodes); i++ {
			out.SetHalf(h, DirOut)
			out.SetHalf(g.OppositeHalf(h), DirIn)
			next := g.Edge(h.Edge).Other(h.Side).Node
			// Exit next by its other port (the one not holding h's edge).
			nh := g.Halves(next)[0]
			if nh.Edge == h.Edge && nh.Side == g.OppositeHalf(h).Side {
				nh = g.Halves(next)[1]
			}
			h = nh
			cur = next
		}
		if cur != start {
			return nil, nil, fmt.Errorf("global orientation: walk did not close on component of node %d", start)
		}
		// Every node needed to see the whole cycle: charge half the
		// cycle length (the eccentricity on a cycle).
		for _, v := range nodes {
			cost.Charge(v, len(nodes)/2+1)
		}
	}
	return out, cost, nil
}
