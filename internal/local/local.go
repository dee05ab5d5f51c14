// Package local implements the cost accounting of the LOCAL model of
// distributed computing (Section 2 of the paper). The model has two
// equivalent formulations:
//
//  1. Synchronous message passing: computation proceeds in rounds; in each
//     round every node sends a message through each port, receives the
//     messages of its neighbors, and updates its state. Message-passing
//     solvers run as typed machines on the engine (internal/engine).
//  2. View gathering: a T-round algorithm is equivalent to every node
//     gathering its radius-T neighborhood and mapping the view to an
//     output. Cost and AdaptiveRadius account rounds in this
//     formulation; solvers in this repository charge the maximal radius
//     they inspect, which is their round complexity.
package local

import (
	"fmt"

	"locallab/internal/graph"
)

// Cost accumulates the locality charged by a solver: for each node, the
// largest radius whose ball the node inspected. In the LOCAL model this
// equals the number of communication rounds the node needs.
type Cost struct {
	radius []int
}

// NewCost creates a Cost tracker for n nodes.
func NewCost(n int) *Cost { return &Cost{radius: make([]int, n)} }

// Charge records that node v inspected radius r; charges are monotone.
func (c *Cost) Charge(v graph.NodeID, r int) {
	if r > c.radius[v] {
		c.radius[v] = r
	}
}

// Radius returns the charged radius of node v.
func (c *Cost) Radius(v graph.NodeID) int { return c.radius[v] }

// Rounds returns the round complexity of the execution: the maximum
// charged radius over all nodes.
func (c *Cost) Rounds() int {
	m := 0
	for _, r := range c.radius {
		if r > m {
			m = r
		}
	}
	return m
}

// Merge folds another cost tracker into this one (max per node).
func (c *Cost) Merge(o *Cost) {
	for v, r := range o.radius {
		if r > c.radius[v] {
			c.radius[v] = r
		}
	}
}

// Histogram returns how many nodes were charged each radius value.
func (c *Cost) Histogram() map[int]int {
	h := make(map[int]int)
	for _, r := range c.radius {
		h[r]++
	}
	return h
}

// AdaptiveRadius drives the standard doubling schedule of view-gathering
// algorithms: it presents balls of radius 1, 2, 4, ... to decide until it
// accepts one, and returns the final radius (the node's charged locality).
// decide must be monotone: once it accepts a ball it would accept any
// larger one.
func AdaptiveRadius(g *graph.Graph, v graph.NodeID, maxRadius int, decide func(*graph.Ball) bool) (int, error) {
	for r := 1; ; r *= 2 {
		if r > maxRadius {
			r = maxRadius
		}
		ball := g.BallAround(v, r)
		if decide(ball) {
			return r, nil
		}
		if r >= maxRadius {
			return r, fmt.Errorf("adaptive radius: node %d undecided at max radius %d", v, maxRadius)
		}
	}
}
