package graph

import (
	"fmt"
	"math/rand"
)

// NewHypercube builds the d-dimensional hypercube Q_d (2^d nodes, degree
// d): a vertex-transitive benchmark where WL refinement cannot separate
// any nodes — the extreme case of local indistinguishability.
func NewHypercube(dim int, seed int64) (*Graph, error) {
	if dim < 1 || dim > 20 {
		return nil, fmt.Errorf("hypercube: need 1 <= dim <= 20, got %d", dim)
	}
	n := 1 << dim
	rng := rand.New(rand.NewSource(seed))
	ids := shuffledIDs(n, rng)
	b := NewBuilder(n, n*dim/2)
	nodes := make([]NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = b.Node(ids[i])
	}
	for i := 0; i < n; i++ {
		for bit := 0; bit < dim; bit++ {
			j := i ^ (1 << bit)
			if i < j {
				b.Link(nodes[i], nodes[j])
			}
		}
	}
	return b.Build()
}

// Girth returns the length of the shortest cycle in the graph, or
// (Unreachable, false) for forests. Self-loops have girth 1 and parallel
// pairs girth 2, consistent with the model's multigraph conventions.
func (g *Graph) Girth() (int, bool) {
	best := Unreachable
	c := newCycleSearch(g)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		// Once a cycle is known, only shorter ones through v matter.
		limit := -1
		if best < Unreachable {
			limit = best
		}
		if sc, ok := c.shortestThrough(v, limit); ok && sc < best {
			best = sc
		}
	}
	if best >= Unreachable {
		return Unreachable, false
	}
	return best, true
}

// DegreeSequence returns the sorted-ascending degree multiset; useful for
// isomorphism spot checks.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.NumNodes())
	for v := range out {
		out[v] = g.Degree(NodeID(v))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
