package core

import (
	"fmt"

	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/local"
)

// PaddedSolver is the Lemma-4 algorithm for Π′: run the gadget verifier V
// on every GadEdge component, mark port validity, contract valid gadgets
// into the virtual graph H, simulate the inner Π-solver on H, and expand
// the virtual solution into Σlist labels.
//
// Round accounting follows the Lemma-4 analysis: every node pays the
// verifier radius O(log n); nodes of valid gadgets additionally pay one
// gadget-dilation unit per simulated inner round (gathering radius
// T·d(n)), which yields the O(T(Π,n)·d(n)) total of Theorem 1.
//
// PaddedSolver runs the whole pipeline as centralized gather-style code;
// it is the sequential oracle the engine-backed EnginePaddedSolver is
// differential-tested against. The pipeline stages (port validity, Σlist
// assembly, cost charging) are shared package-level functions, so the two
// solvers cannot drift apart structurally.
type PaddedSolver struct {
	Delta int
	Inner lcl.Solver
}

var _ lcl.Solver = (*PaddedSolver)(nil)

// NewPaddedSolver constructs the solver.
func NewPaddedSolver(inner lcl.Solver, delta int) *PaddedSolver {
	return &PaddedSolver{Delta: delta, Inner: inner}
}

// Name implements lcl.Solver.
func (s *PaddedSolver) Name() string { return "padded(" + s.Inner.Name() + ")" }

// Randomized implements lcl.Solver.
func (s *PaddedSolver) Randomized() bool { return s.Inner.Randomized() }

// Detail exposes the internals of a padded solve for experiments.
type Detail struct {
	Out       *lcl.Labeling
	Cost      *local.Cost
	Virtual   *VirtualGraph
	VirtOut   *lcl.Labeling
	InnerCost *local.Cost
	PsiRadius int
	Dilation  int
	Valid     int
	Invalid   int
	// Engine carries the measured engine profile when the solve executed
	// on the message-passing engine (EnginePaddedSolver); nil for the
	// sequential oracle.
	Engine *EngineRunStats
}

// Solve implements lcl.Solver.
func (s *PaddedSolver) Solve(g *graph.Graph, in *lcl.Labeling, seed int64) (*lcl.Labeling, *local.Cost, error) {
	d, err := s.SolveDetailed(g, in, seed)
	if err != nil {
		return nil, nil, err
	}
	return d.Out, d.Cost, nil
}

// SolveDetailed runs the algorithm and returns diagnostics.
func (s *PaddedSolver) SolveDetailed(g *graph.Graph, in *lcl.Labeling, seed int64) (*Detail, error) {
	gadIn, piIn, scope, err := decodeInputs(g, in)
	if err != nil {
		return nil, fmt.Errorf("padded solve: %w", err)
	}
	n := g.NumNodes()
	cost := local.NewCost(n)

	// Step 1: the verifier V solves ΨG on every gadget (Definition 2),
	// run centrally with faithful round accounting.
	vf := &errorproof.Verifier{Delta: s.Delta, Scope: scope}
	psiOut, psiCost, err := vf.Run(g, gadIn, n)
	if err != nil {
		return nil, fmt.Errorf("padded solve verifier: %w", err)
	}
	cost.Merge(psiCost)

	// Steps 2-3 are shared with the engine-backed solver.
	plan, err := planPadded(g, gadIn, piIn, scope, psiOut, s.Delta)
	if err != nil {
		return nil, err
	}

	// Step 4, oracle style: the inner solver runs as one centralized call
	// on H. This is the sequential reference the native-machine execution
	// (EnginePaddedSolver, relay.go) is differential-tested against.
	var virtOut *lcl.Labeling
	innerCost := local.NewCost(plan.vg.NumVirtualNodes())
	if plan.vg.NumVirtualNodes() > 0 {
		virtOut, innerCost, err = s.Inner.Solve(plan.vg.H, plan.vg.In, seed)
		if err != nil {
			return nil, fmt.Errorf("padded solve inner: %w", err)
		}
	}

	// The oracle charges the analytical simulation cost: each inner round
	// crosses one gadget, so a valid-gadget node pays
	// (innerRounds+1)·(dilation+1) on top of its Ψ radius.
	d, err := assemblePadded(g, plan, virtOut, innerCost, psiCost, cost, s.Delta,
		func(virt graph.NodeID, dilation int) int {
			return (innerCost.Radius(virt) + 1) * (dilation + 1)
		})
	if err != nil {
		return nil, err
	}
	d.PsiRadius = vf.Radius(n)
	return d, nil
}

// paddedPlan carries the outputs of steps 2-3 of the Lemma-4 pipeline:
// the port-validity labels and the contracted virtual graph. Both the
// sequential oracle and the engine-backed solver build it through
// planPadded, which is what keeps their structural decisions byte-
// identical by construction; the inner solve itself (step 4) is the
// one stage the two paths realize differently.
type paddedPlan struct {
	portErr   []lcl.Label
	compValid []bool
	compOf    []int
	vg        *VirtualGraph
	piIn      *lcl.Labeling
	psiNode   []lcl.Label
	scope     func(graph.EdgeID) bool
	// dilation is the measured gadget dilation d, computed once here: it
	// drives both the relay's super-round length and the charged cost,
	// which must agree.
	dilation int
	// compEcc[ci] is component ci's measured leader eccentricity (-1 for
	// invalid components): the per-gadget schedule the relay plane runs,
	// of which dilation is the maximum.
	compEcc []int
}

// planPadded runs steps 2-3 from the Ψ outputs: port validity and the
// virtual contraction.
func planPadded(g *graph.Graph, gadIn, piIn *lcl.Labeling, scope func(graph.EdgeID) bool,
	psiOut *lcl.Labeling, delta int) (*paddedPlan, error) {

	n := g.NumNodes()

	// Step 2: port-validity labels (constraints 3 and 4).
	portErr := make([]lcl.Label, n)
	compValid, compOf := scopedValidity(g, scope, psiOut.Node)
	for v := graph.NodeID(0); int(v) < n; v++ {
		portErr[v] = portValidity(g, gadIn, scope, compValid, compOf, v)
	}

	// Step 3: contract valid gadgets into the virtual graph.
	vg, err := BuildVirtual(g, gadIn, piIn, scope, psiOut.Node, portErr, delta)
	if err != nil {
		return nil, fmt.Errorf("padded solve: %w", err)
	}
	// Per-gadget eccentricities, measured once at plan time: the relay
	// plane schedules each gadget by its own eccentricity, and the
	// maximum is the dilation d that the charged cost model uses.
	compEcc := make([]int, len(vg.Comps))
	dilation := 0
	for ci, nodes := range vg.Comps {
		compEcc[ci] = -1
		if !vg.Valid[ci] {
			continue
		}
		ecc := scopedEccentricity(g, scope, nodes[0])
		compEcc[ci] = ecc
		if ecc > dilation {
			dilation = ecc
		}
	}
	return &paddedPlan{
		portErr:   portErr,
		compValid: compValid,
		compOf:    compOf,
		vg:        vg,
		piIn:      piIn,
		psiNode:   psiOut.Node,
		scope:     scope,
		dilation:  dilation,
		compEcc:   compEcc,
	}, nil
}

// assemblePadded runs step 5 from a virtual solution: expand the virtual
// labels into Σlists and charge the simulation cost. simCharge reports
// the post-Ψ rounds charged to the nodes of a valid gadget — the
// analytical (T+1)(d+1) model for the oracle, the measured relay-session
// length for the native-machine execution.
func assemblePadded(g *graph.Graph, plan *paddedPlan, virtOut *lcl.Labeling,
	innerCost *local.Cost, psiCost, cost *local.Cost, delta int,
	simCharge func(virt graph.NodeID, dilation int) int) (*Detail, error) {

	n := g.NumNodes()
	vg := plan.vg
	scope := plan.scope
	dilation := plan.dilation
	out, err := expandVirtual(g, plan.piIn, scope, plan.portErr, plan.psiNode, vg, virtOut, delta)
	if err != nil {
		return nil, err
	}
	valid, invalid := 0, 0
	for ci := range vg.Comps {
		if vg.Valid[ci] {
			valid++
		} else {
			invalid++
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		ci := plan.compOf[v]
		if ci >= 0 && vg.Valid[ci] {
			cost.Charge(v, psiCost.Radius(v)+simCharge(vg.VirtOf[ci], dilation))
		}
	}
	return &Detail{
		Out:       out,
		Cost:      cost,
		Virtual:   vg,
		VirtOut:   virtOut,
		InnerCost: innerCost,
		Dilation:  dilation,
		Valid:     valid,
		Invalid:   invalid,
	}, nil
}

// expandVirtual assembles the composite Π′ output labeling from the
// virtual solution: every node of a valid gadget carries its gadget's
// Σlist, every node its port-validity and Ψ labels, and gadget elements
// the ψ placeholder.
func expandVirtual(g *graph.Graph, piIn *lcl.Labeling, scope func(graph.EdgeID) bool,
	portErr []lcl.Label, psiNode []lcl.Label, vg *VirtualGraph, virtOut *lcl.Labeling, delta int) (*lcl.Labeling, error) {

	out := lcl.NewLabeling(g)
	sigmaOf := make([]lcl.Label, len(vg.Comps))
	for ci := range vg.Comps {
		if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
			continue
		}
		sl, err := sigmaFor(g, piIn, scope, portErr, vg, ci, virtOut, delta)
		if err != nil {
			return nil, fmt.Errorf("padded solve: %w", err)
		}
		enc, err := sl.Encode()
		if err != nil {
			return nil, fmt.Errorf("padded solve: %w", err)
		}
		sigmaOf[ci] = enc
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		ci := vg.CompOf[v]
		sigma := lcl.Label("")
		if ci >= 0 && vg.Valid[ci] {
			sigma = sigmaOf[ci]
		}
		lab, err := Compose(sigma, portErr[v], psiNode[v])
		if err != nil {
			return nil, fmt.Errorf("padded solve: %w", err)
		}
		out.Node[v] = lab
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if scope(e) {
			out.Edge[e] = LabPsiEdge
			out.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, LabPsiEdge)
			out.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, LabPsiEdge)
		}
	}
	return out, nil
}

// scopedValidity computes the scoped (GadEdge) components and whether each
// is a valid gadget (all Ψ outputs GadOk). It is shared by the sequential
// and the engine-backed pipeline so both agree on component indexing.
func scopedValidity(g *graph.Graph, scope func(graph.EdgeID) bool, psi []lcl.Label) ([]bool, []int) {
	n := g.NumNodes()
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var valid []bool
	for st := graph.NodeID(0); int(st) < n; st++ {
		if compOf[st] >= 0 {
			continue
		}
		idx := len(valid)
		compOf[st] = idx
		ok := true
		queue := []graph.NodeID{st}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if psi[x] != errorproof.LabGadOk {
				ok = false
			}
			for _, h := range g.Halves(x) {
				if !scope(h.Edge) {
					continue
				}
				y := g.Edge(h.Edge).Other(h.Side).Node
				if compOf[y] < 0 {
					compOf[y] = idx
					queue = append(queue, y)
				}
			}
		}
		valid = append(valid, ok)
	}
	return valid, compOf
}

// portValidity assigns the {PortErr1, PortErr2, NoPortErr} label of one
// node per the Lemma-4 algorithm. The decision is constant-radius: the
// node's own port structure, its partner across the unique port edge, and
// the component validity of both (which every node knows after Ψ).
func portValidity(g *graph.Graph, gadIn *lcl.Labeling, scope func(graph.EdgeID) bool,
	compValid []bool, compOf []int, v graph.NodeID) lcl.Label {

	gd, err := gadget.ParseNodeInput(gadIn.Node[v])
	if err != nil || gd.Port == 0 {
		return NoPortErr
	}
	var portEdges []graph.Half
	for _, h := range g.Halves(v) {
		if !scope(h.Edge) {
			portEdges = append(portEdges, h)
		}
	}
	if len(portEdges) != 1 {
		return PortErr2
	}
	u := g.Edge(portEdges[0].Edge).Other(portEdges[0].Side).Node
	gu, err := gadget.ParseNodeInput(gadIn.Node[u])
	if err != nil || gu.Port == 0 {
		return PortErr1
	}
	if !compValid[compOf[v]] || !compValid[compOf[u]] {
		return PortErr1
	}
	// The partner must itself have exactly one port edge, or the edge
	// dangles on its side.
	cnt := 0
	for _, h := range g.Halves(u) {
		if !scope(h.Edge) {
			cnt++
		}
	}
	if cnt != 1 {
		return PortErr1
	}
	return NoPortErr
}

// sigmaFor builds the Σlist of a valid gadget from the virtual solution.
func sigmaFor(g *graph.Graph, piIn *lcl.Labeling, scope func(graph.EdgeID) bool,
	portErr []lcl.Label, vg *VirtualGraph, ci int, virtOut *lcl.Labeling, delta int) (*SigmaList, error) {

	sl := NewSigmaList(delta)
	virt := vg.VirtOf[ci]
	p1 := vg.PortNode[ci][0]
	if p1 < 0 {
		return nil, fmt.Errorf("valid gadget without Port1 (component %d)", ci)
	}
	sl.IV = string(piIn.Node[p1])
	if virtOut != nil {
		sl.OV = string(virtOut.Node[virt])
	}
	for i := 1; i <= delta; i++ {
		pn := vg.PortNode[ci][i-1]
		if pn < 0 || portErr[pn] != NoPortErr {
			continue
		}
		sl.S = append(sl.S, i)
		// The unique port edge at pn.
		for _, h := range g.Halves(pn) {
			if scope(h.Edge) {
				continue
			}
			sl.IE[i-1] = string(piIn.Edge[h.Edge])
			sl.IB[i-1] = string(piIn.HalfOf(h))
			ve, ok := vg.VEdgeOf[h.Edge]
			if !ok {
				return nil, fmt.Errorf("NoPortErr port %d of component %d has no virtual edge", i, ci)
			}
			if virtOut != nil {
				sl.OE[i-1] = string(virtOut.Edge[ve])
				// The physical U side maps to the virtual U side.
				sl.OB[i-1] = string(virtOut.HalfOf(graph.Half{Edge: ve, Side: h.Side}))
			}
			break
		}
	}
	return sl, nil
}

// maxGadgetEccentricity measures the dilation d: the largest eccentricity
// (within the gadget subgraph) over valid gadgets.
func maxGadgetEccentricity(g *graph.Graph, scope func(graph.EdgeID) bool, vg *VirtualGraph) int {
	maxEcc := 0
	for ci, nodes := range vg.Comps {
		if !vg.Valid[ci] {
			continue
		}
		ecc := scopedEccentricity(g, scope, nodes[0])
		if ecc > maxEcc {
			maxEcc = ecc
		}
	}
	return maxEcc
}

// scopedEccentricity BFS-computes the eccentricity of start within the
// scoped subgraph.
func scopedEccentricity(g *graph.Graph, scope func(graph.EdgeID) bool, start graph.NodeID) int {
	dist := map[graph.NodeID]int{start: 0}
	queue := []graph.NodeID{start}
	ecc := 0
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, h := range g.Halves(x) {
			if !scope(h.Edge) {
				continue
			}
			y := g.Edge(h.Edge).Other(h.Side).Node
			if _, ok := dist[y]; !ok {
				dist[y] = dist[x] + 1
				if dist[y] > ecc {
					ecc = dist[y]
				}
				queue = append(queue, y)
			}
		}
	}
	return ecc
}
