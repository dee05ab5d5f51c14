package sinkless

import (
	"testing"

	"locallab/internal/graph"
)

// TestDetClaimsAreBallLocal validates the LOCAL-model claim behind the
// deterministic solver: a node's orientation claim is a function of its
// radius-(t(v)+2) ball only. We recompute every sampled node's claim on
// the induced ball subgraph and demand exact agreement with the global
// computation — this is what makes the central implementation a faithful
// simulation of a distributed algorithm.
func TestDetClaimsAreBallLocal(t *testing.T) {
	for _, build := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.NewRandomRegular(90, 3, 21, false) },
		func() (*graph.Graph, error) { return graph.NewBitrevTree(6, 2) },
		func() (*graph.Graph, error) { return graph.NewTorus(5, 7, 8) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewDetSolver()
		sc := g.ShortestCycles(s.Opts.MaxCycleLen)
		pot := g.PropagatePotential(sc)
		global, err := s.computeClaims(g, sc, pot)
		if err != nil {
			t.Fatal(err)
		}
		step := g.NumNodes()/12 + 1
		for vi := 0; vi < g.NumNodes(); vi += step {
			v := graph.NodeID(vi)
			if g.Degree(v) == 0 {
				continue
			}
			radius := pot[v] + 2
			sub, toSub, edgeOf, err := graph.BallSubgraph(g, v, radius)
			if err != nil {
				t.Fatal(err)
			}
			subSC := sub.ShortestCycles(s.Opts.MaxCycleLen)
			subPot := sub.PropagatePotential(subSC)
			subV := toSub[v]
			// Recompute only v's claim inside the ball; the helper
			// computes all, we read one.
			localClaims, err := s.computeClaims(sub, subSC, subPot)
			if err != nil {
				t.Fatalf("node %d: ball-local claims: %v", v, err)
			}
			lh := localClaims[subV]
			if lh == noClaim {
				t.Fatalf("node %d: no ball-local claim", v)
			}
			gh := global[v]
			if gh == noClaim {
				t.Fatalf("node %d: no global claim", v)
			}
			// Translate the local claim back to the global graph.
			if edgeOf[lh.Edge] != gh.Edge || lh.Side != gh.Side {
				t.Fatalf("node %d: ball-local claim (edge %d side %d) != global (edge %d side %d); the algorithm is not %d-local",
					v, edgeOf[lh.Edge], lh.Side, gh.Edge, gh.Side, radius)
			}
		}
	}
}

// TestDetPotentialBallLocal confirms that t(v) itself is computable from
// the radius-t(v) ball (the adaptive stopping rule of the solver).
func TestDetPotentialBallLocal(t *testing.T) {
	g, err := graph.NewRandomRegular(80, 3, 33, false)
	if err != nil {
		t.Fatal(err)
	}
	sc := g.ShortestCycles(-1)
	pot := g.PropagatePotential(sc)
	for vi := 0; vi < g.NumNodes(); vi += 7 {
		v := graph.NodeID(vi)
		sub, toSub, _, err := graph.BallSubgraph(g, v, pot[v])
		if err != nil {
			t.Fatal(err)
		}
		subPot := sub.PropagatePotential(sub.ShortestCycles(-1))
		if got := subPot[toSub[v]]; got != pot[v] {
			t.Fatalf("node %d: ball-local t = %d, global t = %d", v, got, pot[v])
		}
	}
}
