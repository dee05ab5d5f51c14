package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Unreachable is the sentinel distance for nodes with no cycle in their
// component (trees), where the cycle potential is undefined.
const Unreachable = int(^uint(0) >> 2)

// ShortestCycleThrough returns the length of the shortest cycle passing
// through node v, or (Unreachable, false) if none exists. Self-loops count
// as cycles of length 1, and a pair of parallel edges as a cycle of
// length 2. The search is truncated at maxLen when maxLen >= 0.
//
// The computation runs one truncated BFS in G-v per port of v, which is
// exact on multigraphs. ShortestCycles runs it for every node on one
// shared scratch; this single-node form allocates its own.
func (g *Graph) ShortestCycleThrough(v NodeID, maxLen int) (int, bool) {
	return newCycleSearch(g).shortestThrough(v, maxLen)
}

// cycleSearch is the reusable scratch of the cycle searches on one graph:
// epoch-stamped per-node marks, so starting a BFS is one increment
// instead of a clear or a fresh map, plus the BFS queue and the port
// table of the node being searched. One search serves any number of
// nodes in turn; it is not safe for concurrent use. The epochs cannot
// wrap: a search runs fewer BFSs than the graph has half-edges, and
// EdgeID is an int32.
type cycleSearch struct {
	g     *Graph
	marks []nodeMark
	bfs   uint32 // current BFS epoch: marks[x].dist is valid iff marks[x].bfs == bfs
	node  uint32 // current searched-node epoch: marks[x].lastPort is valid iff marks[x].node == node
	queue []NodeID
	nbrs  []NodeID // nbrs[p]: the neighbor at port p of the searched node
}

// nodeMark is one node's stamped search state: its BFS distance, and the
// highest port of the searched node that reaches it.
type nodeMark struct {
	bfs      uint32
	dist     int32
	node     uint32
	lastPort int32
}

func newCycleSearch(g *Graph) *cycleSearch {
	n := g.NumNodes()
	return &cycleSearch{
		g:     g,
		marks: make([]nodeMark, n),
		queue: make([]NodeID, 0, n),
		nbrs:  make([]NodeID, 0, g.MaxDegree()),
	}
}

// dist returns x's distance in the current BFS, if it was reached.
func (c *cycleSearch) dist(x NodeID) (int, bool) {
	m := c.marks[x]
	return int(m.dist), m.bfs == c.bfs
}

// shortestThrough is ShortestCycleThrough on the search's scratch. For
// each port p it runs a BFS in G-v from the neighbor x_p; a cycle through
// v with first edge e_p and last edge e_q (q > p) has length
// dist_{G-v}(x_p, x_q)+2. BFS reaches nodes in nondecreasing distance, so
// the first x_q it reaches is the closest and the BFS stops there.
func (c *cycleSearch) shortestThrough(v NodeID, maxLen int) (int, bool) {
	g := c.g
	best := Unreachable
	if maxLen >= 0 && maxLen < best {
		best = maxLen + 1
	}
	// Self-loop: length 1.
	for _, h := range g.Halves(v) {
		if g.IsSelfLoop(h.Edge) {
			return 1, true
		}
	}
	c.node++
	c.nbrs = c.nbrs[:0]
	for p, h := range g.Halves(v) {
		x := g.edges[h.Edge].Other(h.Side).Node
		// Parallel edge: the same neighbor on two ports.
		if m := &c.marks[x]; m.node == c.node {
			if 2 < best {
				return 2, true
			}
		} else {
			m.node = c.node
		}
		c.marks[x].lastPort = int32(p)
		c.nbrs = append(c.nbrs, x)
	}
	for p := 0; p < len(c.nbrs)-1; p++ {
		limit := best - 2 // only distances strictly better than best matter
		if d, ok := c.bfsFrom(c.nbrs[p], v, limit, int32(p)); ok && d+2 < best {
			best = d + 2
		}
	}
	if best >= Unreachable || (maxLen >= 0 && best > maxLen) {
		return Unreachable, false
	}
	return best, true
}

// bfsFrom runs a BFS from src in G-avoid (avoid < 0 removes nothing),
// truncated at the given radius (none if radius < 0), leaving the
// distances in the marks of a new epoch. It stops early, and returns
// that node's distance, when it reaches the neighbor of the searched node
// at some port after p.
func (c *cycleSearch) bfsFrom(src, avoid NodeID, radius int, p int32) (int, bool) {
	g := c.g
	c.bfs++
	c.marks[src].bfs, c.marks[src].dist = c.bfs, 0
	q := append(c.queue[:0], src)
	d, found := 0, false
search:
	for head := 0; head < len(q); head++ {
		x := q[head]
		dx := c.marks[x].dist
		if radius >= 0 && int(dx) >= radius {
			continue
		}
		for _, h := range g.Halves(x) {
			y := g.edges[h.Edge].Other(h.Side).Node
			m := &c.marks[y]
			if y == avoid || m.bfs == c.bfs {
				continue
			}
			m.bfs, m.dist = c.bfs, dx+1
			if m.node == c.node && m.lastPort > p {
				d, found = int(dx+1), true
				break search
			}
			q = append(q, y)
		}
	}
	c.queue = q[:0]
	return d, found
}

// CyclePotential computes, for every node v, the potential
//
//	t(v) = min over cycles C of ( dist(v, C) + |C| )
//	     = min over nodes w of ( dist(v, w) + sc(w) )
//
// where sc(w) is the shortest cycle through w. Nodes in acyclic components
// get Unreachable. The potential is the locality radius needed by the
// deterministic sinkless-orientation algorithm: B(v, t(v)) contains the
// optimal cycle entirely.
//
// maxLen truncates the per-node shortest-cycle search (pass a bound like
// 3*log2(n)+O(1) for minimum-degree-3 graphs, or -1 for exact).
func (g *Graph) CyclePotential(maxLen int) []int {
	return g.PropagatePotential(g.ShortestCycles(maxLen))
}

// ShortestCycles returns sc(v) — the length of the shortest cycle through
// v, truncated at maxLen (pass -1 for exact) — for every node, with
// Unreachable for nodes on no cycle.
//
// Every node's search runs on one shared scratch, so the call makes a
// constant number of allocations whatever the size of the graph.
func (g *Graph) ShortestCycles(maxLen int) []int {
	n := g.NumNodes()
	sc := make([]int, n)
	c := newCycleSearch(g)
	for v := 0; v < n; v++ {
		// Unreachable comes back with ok=false.
		sc[v], _ = c.shortestThrough(NodeID(v), maxLen)
	}
	return sc
}

// PropagatePotential runs a multi-source Dijkstra with unit edge weights
// and per-node source offsets, returning t(v) = min_w (dist(v,w)+src[w]).
func (g *Graph) PropagatePotential(src []int) []int {
	n := g.NumNodes()
	t := make([]int, n)
	pq := make(potentialHeap, 0, n)
	for v := 0; v < n; v++ {
		t[v] = src[v]
		if src[v] < Unreachable {
			pq = append(pq, potentialItem{node: NodeID(v), val: src[v]})
		}
	}
	heap.Init(&pq)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(potentialItem)
		if it.val > t[it.node] {
			continue
		}
		for _, h := range g.Halves(it.node) {
			y := g.edges[h.Edge].Other(h.Side).Node
			if it.val+1 < t[y] {
				t[y] = it.val + 1
				heap.Push(&pq, potentialItem{node: y, val: t[y]})
			}
		}
	}
	return t
}

type potentialItem struct {
	node NodeID
	val  int
}

type potentialHeap []potentialItem

func (h potentialHeap) Len() int            { return len(h) }
func (h potentialHeap) Less(i, j int) bool  { return h[i].val < h[j].val }
func (h potentialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *potentialHeap) Push(x interface{}) { *h = append(*h, x.(potentialItem)) }
func (h *potentialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Cycle is a simple cycle represented as the sequence of half-edges exited
// while traversing it: Walk[i] is the half-edge attached to the i-th node
// of the traversal, and following Walk[i]'s edge leads to the (i+1 mod L)-th
// node. A self-loop is a length-1 cycle.
type Cycle struct {
	Walk []Half
}

// Len returns the number of edges on the cycle.
func (c Cycle) Len() int { return len(c.Walk) }

// Nodes returns the node sequence of the traversal in g.
func (c Cycle) Nodes(g *Graph) []NodeID {
	nodes := make([]NodeID, len(c.Walk))
	for i, h := range c.Walk {
		nodes[i] = g.HalfNode(h)
	}
	return nodes
}

// edgeSeq returns the edge-ID sequence of the traversal.
func (c Cycle) edgeSeq() []EdgeID {
	seq := make([]EdgeID, len(c.Walk))
	for i, h := range c.Walk {
		seq[i] = h.Edge
	}
	return seq
}

// Canonicalize rewrites the cycle into its canonical oriented rotation:
// among all 2L oriented rotations (L rotations in each direction), the one
// whose (edge-ID sequence, node-ID sequence) is lexicographically smallest.
// Both endpoints of any edge on the cycle compute the same canonical form,
// which is what makes cycle-based orientation claims conflict-free.
func (c Cycle) Canonicalize(g *Graph) Cycle {
	best := c.Walk
	bestKey := cycleKey(g, best)
	for _, cand := range c.orientedRotations(g) {
		key := cycleKey(g, cand)
		if lessKey(key, bestKey) {
			best = cand
			bestKey = key
		}
	}
	return Cycle{Walk: best}
}

// orientedRotations enumerates every rotation of the cycle in both
// traversal directions.
func (c Cycle) orientedRotations(g *Graph) [][]Half {
	l := len(c.Walk)
	out := make([][]Half, 0, 2*l)
	// Forward rotations.
	for s := 0; s < l; s++ {
		rot := make([]Half, l)
		for i := 0; i < l; i++ {
			rot[i] = c.Walk[(s+i)%l]
		}
		out = append(out, rot)
	}
	// Reverse direction: traversing backwards, the half exited at node i
	// is the opposite half of the edge entered in forward direction.
	rev := make([]Half, l)
	for i := 0; i < l; i++ {
		// Forward: node_i exits via Walk[i] and arrives at node_{i+1}.
		// Backward: node_{i+1} exits via the opposite half of Walk[i].
		h := c.Walk[i]
		rev[l-1-i] = Half{Edge: h.Edge, Side: 1 - h.Side}
	}
	for s := 0; s < l; s++ {
		rot := make([]Half, l)
		for i := 0; i < l; i++ {
			rot[i] = rev[(s+i)%l]
		}
		out = append(out, rot)
	}
	return out
}

// cycleKey builds the comparison key of an oriented rotation: edge IDs
// first, node IDs second.
func cycleKey(g *Graph, walk []Half) []int64 {
	key := make([]int64, 0, 2*len(walk))
	for _, h := range walk {
		key = append(key, int64(h.Edge))
	}
	for _, h := range walk {
		key = append(key, g.ID(g.HalfNode(h)))
	}
	return key
}

func lessKey(a, b []int64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ErrCycleEnumerationTooLarge is returned when the number of shortest
// cycles through a node exceeds the enumeration cap. It does not occur on
// the graph families used in this repository; it guards against
// pathological inputs.
var ErrCycleEnumerationTooLarge = errors.New("too many shortest cycles through node")

// CanonicalShortestCycleThrough returns the canonical representative among
// all shortest cycles through v: the one with the lexicographically
// smallest canonical key. length must equal the shortest-cycle length
// through v (from ShortestCycleThrough). cap bounds the enumeration.
func (g *Graph) CanonicalShortestCycleThrough(v NodeID, length, capCycles int) (Cycle, error) {
	cycles, err := g.enumerateCyclesThrough(v, length, capCycles)
	if err != nil {
		return Cycle{}, err
	}
	if len(cycles) == 0 {
		return Cycle{}, fmt.Errorf("node %d: no cycle of length %d", v, length)
	}
	best := cycles[0].Canonicalize(g)
	bestKey := cycleKey(g, best.Walk)
	for _, c := range cycles[1:] {
		cc := c.Canonicalize(g)
		key := cycleKey(g, cc.Walk)
		if lessKey(key, bestKey) {
			best = cc
			bestKey = key
		}
	}
	return best, nil
}

// enumerateCyclesThrough lists all simple cycles of exactly the given
// length through v (each in one arbitrary orientation; duplicates under
// rotation/reflection are fine because Canonicalize collapses them).
func (g *Graph) enumerateCyclesThrough(v NodeID, length, capCycles int) ([]Cycle, error) {
	if length == 1 {
		// Self-loops.
		var out []Cycle
		for _, h := range g.Halves(v) {
			if g.IsSelfLoop(h.Edge) && h.Side == SideU {
				out = append(out, Cycle{Walk: []Half{h}})
			}
		}
		return out, nil
	}
	// Distances from v; no port is a target, so the BFS runs to length.
	c := newCycleSearch(g)
	c.bfsFrom(v, -1, length, math.MaxInt32)
	onPath := make([]bool, g.NumNodes())
	var out []Cycle
	walk := make([]Half, 0, length)
	onPath[v] = true

	var dfs func(cur NodeID, steps int) error
	dfs = func(cur NodeID, steps int) error {
		for _, h := range g.Halves(cur) {
			next := g.edges[h.Edge].Other(h.Side).Node
			if steps > 0 && h.Edge == walk[steps-1].Edge {
				continue // no immediate edge backtracking
			}
			if steps == length-1 {
				if next == v {
					c := make([]Half, length)
					copy(c, walk)
					c[length-1] = h
					out = append(out, Cycle{Walk: c})
					if len(out) > capCycles {
						return ErrCycleEnumerationTooLarge
					}
				}
				continue
			}
			if next == v || onPath[next] {
				continue
			}
			d, ok := c.dist(next)
			if !ok || steps+1+d > length {
				continue // cannot return in time
			}
			walk = append(walk, h)
			onPath[next] = true
			err := dfs(next, steps+1)
			onPath[next] = false
			walk = walk[:len(walk)-1]
			if err != nil {
				return err
			}
		}
		return nil
	}
	walk = walk[:0]
	// Seed: first step from v.
	for _, h := range g.Halves(v) {
		next := g.edges[h.Edge].Other(h.Side).Node
		if next == v {
			continue // loops handled above, and a loop cannot start a longer simple cycle
		}
		if d, ok := c.dist(next); !ok || 1+d > length {
			continue
		}
		walk = append(walk, h)
		onPath[next] = true
		err := dfs(next, 1)
		onPath[next] = false
		walk = walk[:len(walk)-1]
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortNodesByID returns the node list sorted by identifier; a helper for
// canonical iteration orders in solvers and tests.
func (g *Graph) SortNodesByID(nodes []NodeID) []NodeID {
	out := make([]NodeID, len(nodes))
	copy(out, nodes)
	sort.Slice(out, func(i, j int) bool { return g.ids[out[i]] < g.ids[out[j]] })
	return out
}
