package graph

import (
	"fmt"
	"testing"
)

// bruteShortestCycle is the reference for ShortestCycleThrough: by
// iterative deepening it looks for a closed walk of exactly L edges from
// v that repeats no node and no edge, for L = 1, 2, …, and reports the
// first L found, or Unreachable when none exists within maxLen (or at
// all, for maxLen < 0). A self-loop is a cycle of length 1 whatever the
// bound, as in ShortestCycleThrough.
func bruteShortestCycle(g *Graph, v NodeID, maxLen int) int {
	for _, h := range g.Halves(v) {
		if g.IsSelfLoop(h.Edge) {
			return 1
		}
	}
	limit := maxLen
	if limit < 0 || limit > g.NumEdges() {
		limit = g.NumEdges()
	}
	onPath := make([]bool, g.NumNodes())
	usedEdge := make([]bool, g.NumEdges())
	var walk func(cur NodeID, left int) bool
	walk = func(cur NodeID, left int) bool {
		for _, h := range g.Halves(cur) {
			if usedEdge[h.Edge] || g.IsSelfLoop(h.Edge) {
				continue
			}
			next := g.Edge(h.Edge).Other(h.Side).Node
			if left == 1 {
				if next == v {
					return true
				}
				continue
			}
			if next == v || onPath[next] {
				continue
			}
			onPath[next], usedEdge[h.Edge] = true, true
			found := walk(next, left-1)
			onPath[next], usedEdge[h.Edge] = false, false
			if found {
				return true
			}
		}
		return false
	}
	onPath[v] = true
	for l := 2; l <= limit; l++ {
		if walk(v, l) {
			return l
		}
	}
	return Unreachable
}

// brutePotential is the reference for CyclePotential: all-pairs hop
// distances by Floyd–Warshall, then t(v) = min_w dist(v,w) + sc(w).
func brutePotential(g *Graph, sc []int) []int {
	n := g.NumNodes()
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = Unreachable
		}
		dist[i][i] = 0
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if ed.U.Node != ed.V.Node {
			dist[ed.U.Node][ed.V.Node] = 1
			dist[ed.V.Node][ed.U.Node] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	t := make([]int, n)
	for v := range t {
		t[v] = Unreachable
		for w := range t {
			if dist[v][w] < Unreachable && sc[w] < Unreachable && dist[v][w]+sc[w] < t[v] {
				t[v] = dist[v][w] + sc[w]
			}
		}
	}
	return t
}

// cycleFixtures are small graphs with the model's corner cases —
// self-loops, parallel edges, trees, disconnected pieces — plus every
// generator family at a small size.
func cycleFixtures(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	build := func(name string, n int, edges [][2]int) {
		b := NewBuilder(n, len(edges))
		for i := 0; i < n; i++ {
			b.Node(int64(100 - 3*i))
		}
		for _, e := range edges {
			b.Link(NodeID(e[0]), NodeID(e[1]))
		}
		out[name] = mustBuild(b)
	}
	build("loop-on-path", 4, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 3}})
	build("two-loops", 3, [][2]int{{0, 0}, {0, 0}, {0, 1}, {1, 2}})
	build("parallel-pair", 3, [][2]int{{0, 1}, {0, 1}, {1, 2}})
	build("triple-edge", 2, [][2]int{{0, 1}, {1, 0}, {0, 1}})
	build("lollipop", 7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}})
	build("theta", 6, [][2]int{{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 5}, {0, 4}, {4, 5}})
	build("tree", 7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}})
	build("disconnected", 11, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // square
		{4, 5}, {5, 6}, // path
		{7, 8}, {8, 9}, {9, 7}, {9, 9}, // triangle with a loop
	})
	build("isolated", 2, nil)
	for _, f := range Families() {
		for _, n := range []int{f.MinSize, 16} {
			g, err := f.Build(n, 7)
			if err != nil {
				t.Fatalf("%s(%d): %v", f.Name, n, err)
			}
			out[fmt.Sprintf("%s-%d", f.Name, n)] = g
		}
	}
	return out
}

// TestShortestCyclesMatchBruteForce checks ShortestCycles (and so every
// ShortestCycleThrough), Girth and CyclePotential against the
// brute-force references on every fixture and truncation bound.
func TestShortestCyclesMatchBruteForce(t *testing.T) {
	for name, g := range cycleFixtures(t) {
		for _, maxLen := range []int{-1, 3, 6} {
			sc := g.ShortestCycles(maxLen)
			want := make([]int, g.NumNodes())
			girth := Unreachable
			for v := range want {
				want[v] = bruteShortestCycle(g, NodeID(v), maxLen)
				if sc[v] != want[v] {
					t.Fatalf("%s maxLen=%d: sc(%d) = %d, want %d", name, maxLen, v, sc[v], want[v])
				}
				if single, ok := g.ShortestCycleThrough(NodeID(v), maxLen); single != want[v] || ok != (want[v] < Unreachable) {
					t.Fatalf("%s maxLen=%d: ShortestCycleThrough(%d) = (%d, %v), want %d", name, maxLen, v, single, ok, want[v])
				}
				girth = min(girth, want[v])
			}
			if maxLen < 0 {
				if got, ok := g.Girth(); got != girth || ok != (girth < Unreachable) {
					t.Fatalf("%s: Girth = (%d, %v), want %d", name, got, ok, girth)
				}
			}
			pot := g.CyclePotential(maxLen)
			for v, w := range brutePotential(g, want) {
				if pot[v] != w {
					t.Fatalf("%s maxLen=%d: t(%d) = %d, want %d", name, maxLen, v, pot[v], w)
				}
			}
		}
	}
}

// TestShortestCyclesAllocsConstant pins ShortestCycles to a fixed number
// of allocations — the result and one shared scratch — whatever n.
func TestShortestCyclesAllocsConstant(t *testing.T) {
	var counts []float64
	for _, n := range []int{64, 1024} {
		g, err := NewRandomRegular(n, 3, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() { g.ShortestCycles(-1) }))
	}
	if counts[0] != counts[1] || counts[1] > 5 {
		t.Fatalf("ShortestCycles allocations at n=64, 1024: %v, want one constant <= 5", counts)
	}
}
