package sinkless

import (
	"fmt"
	"math/rand"
	"sort"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// RandSolver is the randomized sinkless-orientation solver: one round of
// uniformly random out-claims, then shortest-path flip repairs for the few
// surviving sinks. On Δ>=3-regular instances a node survives as a sink
// with probability at most Δ^-Δ, so defects are sparse and repair paths
// short; the measured locality grows like the largest surviving defect,
// the shattering shape of the true Θ(log log n) algorithm (see DESIGN.md,
// substitution 3).
type RandSolver struct {
	// MaxRepairRadius caps the search for a repair target (out-degree >= 2
	// node); it only guards against unsolvable leftovers.
	MaxRepairRadius int
}

var _ lcl.Solver = &RandSolver{}

// NewRandSolver returns the solver with a generous repair cap.
func NewRandSolver() *RandSolver { return &RandSolver{MaxRepairRadius: 1 << 20} }

// Name implements lcl.Solver.
func (s *RandSolver) Name() string { return "sinkless-rand-shatter" }

// Randomized implements lcl.Solver.
func (s *RandSolver) Randomized() bool { return true }

// Solve implements lcl.Solver. The input labeling is ignored.
func (s *RandSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	n := g.NumNodes()
	cost := local.NewCost(n)
	if err := checkSolvable(g); err != nil {
		return nil, nil, err
	}

	// Phase 1 (one round): random out-claims, canonical resolution. One
	// source, reseeded per node, draws every node's engine.DeriveRNG
	// stream.
	claims := newClaims(n)
	rng := rand.New(engine.NewNodeSource(0))
	for vi := 0; vi < n; vi++ {
		v := graph.NodeID(vi)
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		rng.Seed(engine.NodeSeed(seed, g.ID(v)))
		claims[v] = g.HalfAt(v, int32(rng.Intn(d)))
		cost.Charge(v, 1)
	}
	outSide := make([]graph.Side, g.NumEdges())
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		hu := graph.Half{Edge: e, Side: graph.SideU}
		hv := graph.Half{Edge: e, Side: graph.SideV}
		claimU := claims[ed.U.Node] == hu
		claimV := claims[ed.V.Node] == hv
		switch {
		case claimU && claimV:
			// Conflict: both want it outgoing. The larger identifier
			// wins; the loser becomes a repair candidate.
			if g.ID(ed.U.Node) >= g.ID(ed.V.Node) {
				outSide[e] = graph.SideU
			} else {
				outSide[e] = graph.SideV
			}
		case claimU:
			outSide[e] = graph.SideU
		case claimV:
			outSide[e] = graph.SideV
		default:
			if g.ID(ed.U.Node) >= g.ID(ed.V.Node) {
				outSide[e] = graph.SideU
			} else {
				outSide[e] = graph.SideV
			}
		}
	}

	// Phase 2: repair sinks wave by wave. Within a wave, repairs with
	// node-disjoint flip paths run in parallel; overlapping repairs defer
	// to the next wave. The charged locality of a repair is its path
	// length; waves add up.
	outDeg := make([]int, n)
	recountAll(g, outSide, outDeg)
	waveBase := 1 // phase-1 round
	for wave := 0; ; wave++ {
		var sinks []graph.NodeID
		for vi := 0; vi < n; vi++ {
			if g.Degree(graph.NodeID(vi)) > 0 && outDeg[vi] == 0 {
				sinks = append(sinks, graph.NodeID(vi))
			}
		}
		if len(sinks) == 0 {
			break
		}
		if wave > n {
			return nil, nil, fmt.Errorf("repair did not converge after %d waves", wave)
		}
		sort.Slice(sinks, func(i, j int) bool { return g.ID(sinks[i]) < g.ID(sinks[j]) })
		used := make(map[graph.NodeID]bool, len(sinks)*4)
		waveMax := 0
		for _, sNode := range sinks {
			if outDeg[sNode] > 0 || used[sNode] {
				continue
			}
			path, found := s.findRepairPath(g, sNode, outDeg, used)
			if !found {
				continue // deferred to the next wave
			}
			flipPath(g, outSide, outDeg, path)
			for _, x := range path {
				used[x] = true
			}
			if len(path)-1 > waveMax {
				waveMax = len(path) - 1
			}
			cost.Charge(sNode, waveBase+len(path)-1)
		}
		if waveMax == 0 {
			// Nothing was repairable this wave: all candidates blocked.
			// Retry with a fresh used-set next wave; if no progress is
			// possible at all, findRepairPath hit the radius cap.
			stuck := true
			for _, sNode := range sinks {
				if outDeg[sNode] == 0 {
					if _, found := s.findRepairPath(g, sNode, outDeg, map[graph.NodeID]bool{}); found {
						stuck = false
						break
					}
				}
			}
			if stuck {
				return nil, nil, fmt.Errorf("sink repair stuck: no out-degree-2 node reachable")
			}
		}
		waveBase += waveMax + 1
	}

	out := lcl.NewLabeling(g)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		hu := graph.Half{Edge: e, Side: graph.SideU}
		hv := graph.Half{Edge: e, Side: graph.SideV}
		if outSide[e] == graph.SideU {
			out.SetHalf(hu, LabelOut)
			out.SetHalf(hv, LabelIn)
		} else {
			out.SetHalf(hu, LabelIn)
			out.SetHalf(hv, LabelOut)
		}
	}
	return out, cost, nil
}

// checkSolvable verifies that every component with edges contains a cycle
// (|E| >= |V| within the component, counting multi-edges).
func checkSolvable(g *graph.Graph) error {
	comps, lookup := g.Components()
	edgeCount := make([]int, len(comps))
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		edgeCount[lookup[g.Edge(e).U.Node]]++
	}
	for ci, nodes := range comps {
		if len(nodes) == 1 && g.Degree(nodes[0]) == 0 {
			continue // isolated node: unconstrained
		}
		if edgeCount[ci] < len(nodes) {
			return fmt.Errorf("component %d: %w", ci, ErrUnsolvable)
		}
	}
	return nil
}

// findRepairPath BFS-searches from the sink for the nearest node with
// out-degree >= 2, avoiding nodes already used in this wave. It returns
// the path sink..target.
func (s *RandSolver) findRepairPath(g *graph.Graph, sink graph.NodeID, outDeg []int, used map[graph.NodeID]bool) ([]graph.NodeID, bool) {
	type entry struct {
		node graph.NodeID
		dist int
	}
	parent := map[graph.NodeID]graph.NodeID{sink: sink}
	queue := []entry{{node: sink, dist: 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dist > s.MaxRepairRadius {
			return nil, false
		}
		if outDeg[cur.node] >= 2 && cur.node != sink {
			var path []graph.NodeID
			for x := cur.node; ; x = parent[x] {
				path = append(path, x)
				if x == sink {
					break
				}
			}
			// Reverse to sink..target order.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, true
		}
		for _, h := range g.Halves(cur.node) {
			y := g.Edge(h.Edge).Other(h.Side).Node
			if y == cur.node || used[y] {
				continue
			}
			if _, seen := parent[y]; seen {
				continue
			}
			parent[y] = cur.node
			queue = append(queue, entry{node: y, dist: cur.dist + 1})
		}
	}
	return nil, false
}

// flipPath orients every edge along the path forward (path[i] -> path[i+1])
// and updates out-degrees. Forward orientation gives each interior node an
// out-edge and costs the target at most one out.
func flipPath(g *graph.Graph, outSide []graph.Side, outDeg []int, path []graph.NodeID) {
	for i := 0; i+1 < len(path); i++ {
		x, y := path[i], path[i+1]
		e := findEdgeBetween(g, x, y)
		ed := g.Edge(e)
		var want graph.Side
		if ed.U.Node == x {
			want = graph.SideU
		} else {
			want = graph.SideV
		}
		if outSide[e] != want {
			outSide[e] = want
			outDeg[x]++
			outDeg[y]--
		}
	}
}

// findEdgeBetween returns some edge connecting x and y (the lowest edge ID
// for determinism).
func findEdgeBetween(g *graph.Graph, x, y graph.NodeID) graph.EdgeID {
	best := graph.EdgeID(-1)
	for _, h := range g.Halves(x) {
		if g.Edge(h.Edge).Other(h.Side).Node == y {
			if best < 0 || h.Edge < best {
				best = h.Edge
			}
		}
	}
	return best
}

// recountAll recomputes out-degrees from scratch.
func recountAll(g *graph.Graph, outSide []graph.Side, outDeg []int) {
	for i := range outDeg {
		outDeg[i] = 0
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		outDeg[ed.At(outSide[e]).Node]++
	}
}
