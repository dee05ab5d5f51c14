package core

import (
	"fmt"
	"sync"

	"locallab/internal/errorproof"
	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// PiPrime is the padded ne-LCL Π′ of Section 3.3, parameterized by the
// inner problem Π and the gadget family's Δ. Constraints follow the
// paper's numbering:
//
//  1. ε on port edges/halves, ΨG outputs on gadget edges/halves.
//  2. ΨG solved on every gadget (GadEdge component).
//  3. PortErr2 exactly at ports with a port-edge count != 1.
//  4. Port-edge endpoints agree on validity (no PortErr1 between two
//     GadOk ports; no NoPortErr toward NoPort/erroring partners).
//  5. Nodes of valid gadgets carry a Σlist describing the virtual node:
//     valid-port set S, faithful input copies, and outputs satisfying
//     Π's node constraint.
//  6. Equal Σlist along gadget edges; Π's edge constraint across port
//     edges between valid ports.
//
// The virtual-configuration checks (5's last bullet, 6's last bullet)
// run on hypothetical stars/edges when the inner problem is
// star-checkable (its constraints read only the immediate
// configuration, as the formal ne-LCL definition demands). Inner
// problems that are themselves PiPrime instances are validated globally
// by VerifyPadded, which reconstructs the virtual graph.
type PiPrime struct {
	Inner lcl.Problem
	Delta int

	// latest is the decode of the labeling pair CheckNode or CheckEdge
	// saw last, keyed by pointer: lcl.Verify passes one pair to every
	// check.
	mu        sync.Mutex
	latestKey [2]*lcl.Labeling
	latest    *pairCheck
}

var _ lcl.Problem = (*PiPrime)(nil)

// NewPiPrime constructs the padded problem.
func NewPiPrime(inner lcl.Problem, delta int) *PiPrime {
	return &PiPrime{Inner: inner, Delta: delta}
}

// Name implements lcl.Problem.
func (p *PiPrime) Name() string { return "padded(" + p.Inner.Name() + ")" }

// StarCheckable reports whether a problem's constraints read only the
// immediate node/edge configuration, making hypothetical-star checking
// valid. Problems advertise it via an optional interface.
func StarCheckable(prob lcl.Problem) bool {
	sc, ok := prob.(interface{ StarCheckable() bool })
	return ok && sc.StarCheckable()
}

// projIn is the decoded composite input labeling.
type projIn struct {
	gad   *lcl.Labeling
	pi    *lcl.Labeling
	scope func(graph.EdgeID) bool
	err   error
}

// projOut is the decoded composite output labeling.
type projOut struct {
	sigma   []lcl.Label    // Σlist part per node
	sl      []*sigmaDecode // decoded Σlist per node
	portErr []lcl.Label
	psi     *lcl.Labeling // Ψ node outputs (projected)
	errs    []error       // per-node decode errors
}

// sigmaDecode is the decoded Σlist of one distinct Σlist label, shared by
// every node carrying it (constraint 6 makes it one per gadget).
type sigmaDecode struct {
	sl  *SigmaList
	err error
}

// pairCheck checks Π′ on one labeling pair, decoding the pair's
// composite labels once, on first use: after lcl.Verify has checked the
// pair's shape.
type pairCheck struct {
	*PiPrime
	pin  *projIn
	pout *projOut
}

func (p *pairCheck) decoded(g *graph.Graph, in, out *lcl.Labeling) (*projIn, *projOut) {
	if p.pin == nil {
		pin := &projIn{}
		pin.gad, pin.pi, pin.scope, pin.err = decodeInputs(g, in)
		p.pin, p.pout = pin, p.decodeOutputs(g, out)
	}
	return p.pin, p.pout
}

func (p *PiPrime) decodeOutputs(g *graph.Graph, out *lcl.Labeling) *projOut {
	n := g.NumNodes()
	pr := &projOut{
		sigma:   make([]lcl.Label, n),
		sl:      make([]*sigmaDecode, n),
		portErr: make([]lcl.Label, n),
		psi:     lcl.NewLabeling(g),
		errs:    make([]error, n),
	}
	decoded := make(map[lcl.Label]*sigmaDecode)
	var parts [outNodeParts]lcl.Label
	for v := 0; v < n; v++ {
		if err := splitInto(out.Node[v], parts[:]); err != nil {
			pr.errs[v] = err
			continue
		}
		pr.sigma[v] = parts[0]
		pr.portErr[v] = parts[1]
		pr.psi.Node[v] = parts[2]
		d, ok := decoded[parts[0]]
		if !ok {
			d = &sigmaDecode{}
			d.sl, d.err = DecodeSigmaList(parts[0], p.Delta)
			decoded[parts[0]] = d
		}
		pr.sl[v] = d
	}
	return pr
}

// pair returns the decoded pair for lcl.Verify's checks, reusing the
// latest one. It decodes under the lock, so concurrent checks only read
// the result.
func (p *PiPrime) pair(g *graph.Graph, in, out *lcl.Labeling) *pairCheck {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := [2]*lcl.Labeling{in, out}
	if p.latest == nil || p.latestKey != key {
		pc := &pairCheck{PiPrime: p}
		pc.decoded(g, in, out)
		p.latestKey, p.latest = key, pc
	}
	return p.latest
}

// CheckNode implements lcl.Problem.
func (p *PiPrime) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	return p.pair(g, in, out).CheckNode(g, in, out, v)
}

// CheckEdge implements lcl.Problem.
func (p *PiPrime) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	return p.pair(g, in, out).CheckEdge(g, in, out, e)
}

// CheckNode implements lcl.Problem.
func (p *pairCheck) CheckNode(g *graph.Graph, in, out *lcl.Labeling, v graph.NodeID) error {
	pin, pout := p.decoded(g, in, out)
	if pin.err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "composite input: %v", pin.err)
	}
	if pout.errs[v] != nil {
		return lcl.Violation(p.Name(), "node", int(v), "composite output: %v", pout.errs[v])
	}
	gd, err := gadget.ParseNodeInput(pin.gad.Node[v])
	if err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "gadget input: %v", err)
	}

	// Constraint 1, half-edge part: ε across port edges, ΨG output on
	// gadget halves.
	portEdgeCount := 0
	for _, h := range g.Halves(v) {
		lab := out.HalfOf(h)
		if pin.scope(h.Edge) {
			if lab != LabPsiEdge {
				return lcl.Violation(p.Name(), "node", int(v), "gadget half output %q, want %q", lab, LabPsiEdge)
			}
		} else {
			portEdgeCount++
			if lab != "" {
				return lcl.Violation(p.Name(), "node", int(v), "port half output %q, want ε", lab)
			}
		}
	}

	// Constraint 2: ΨG's node constraint at v.
	psi := &errorproof.Psi{Delta: p.Delta, Scope: pin.scope}
	if err := psi.CheckNode(g, pin.gad, pout.psi, v); err != nil {
		return err
	}

	// Constraint 3: PortErr2 accounting.
	pe := pout.portErr[v]
	if pe != PortErr1 && pe != PortErr2 && pe != NoPortErr {
		return lcl.Violation(p.Name(), "node", int(v), "port-validity label %q", pe)
	}
	wantErr2 := gd.Port > 0 && portEdgeCount != 1
	if wantErr2 && pe != PortErr2 {
		return lcl.Violation(p.Name(), "node", int(v), "port %d has %d port edges but label %q, want PortErr2", gd.Port, portEdgeCount, pe)
	}
	if !wantErr2 && pe == PortErr2 {
		return lcl.Violation(p.Name(), "node", int(v), "PortErr2 without a port-count violation")
	}

	// Constraint 5: excused when an LErr output appears on v or its
	// incident gadget elements (our ΨG writes content on nodes only).
	if errorproof.IsErrorLabel(pout.psi.Node[v]) {
		return nil
	}
	if err := pout.sl[v].err; err != nil {
		return lcl.Violation(p.Name(), "node", int(v), "Σlist: %v", err)
	}
	sl := pout.sl[v].sl
	// Bullet 1: S membership mirrors NoPortErr at ports.
	if gd.Port > 0 {
		if sl.Contains(gd.Port) != (pe == NoPortErr) {
			return lcl.Violation(p.Name(), "node", int(v), "port %d: S membership %v vs label %q", gd.Port, sl.Contains(gd.Port), pe)
		}
	}
	// Bullet 2: Port1 carries the virtual node's input.
	if gd.Port == 1 && lcl.Label(sl.IV) != pin.pi.Node[v] {
		return lcl.Violation(p.Name(), "node", int(v), "Σlist IV %q differs from Port1 input %q", sl.IV, pin.pi.Node[v])
	}
	// Bullet 3: faithful copies of the port edge's Π-inputs.
	if gd.Port > 0 && sl.Contains(gd.Port) {
		for _, h := range g.Halves(v) {
			if pin.scope(h.Edge) {
				continue
			}
			if lcl.Label(sl.IE[gd.Port-1]) != pin.pi.Edge[h.Edge] {
				return lcl.Violation(p.Name(), "node", int(v), "Σlist IE[%d] %q differs from port edge input %q",
					gd.Port, sl.IE[gd.Port-1], pin.pi.Edge[h.Edge])
			}
			if lcl.Label(sl.IB[gd.Port-1]) != pin.pi.HalfOf(h) {
				return lcl.Violation(p.Name(), "node", int(v), "Σlist IB[%d] %q differs from port half input %q",
					gd.Port, sl.IB[gd.Port-1], pin.pi.HalfOf(h))
			}
		}
	}
	// Bullet 4: the virtual node configuration satisfies Π's node
	// constraint (checked on a hypothetical star for star-checkable Π;
	// otherwise VerifyPadded validates the reconstructed virtual graph).
	if StarCheckable(p.Inner) {
		if err := p.starNodeCheck(sl); err != nil {
			return lcl.Violation(p.Name(), "node", int(v), "virtual node constraint: %v", err)
		}
	}
	return nil
}

// CheckEdge implements lcl.Problem.
func (p *pairCheck) CheckEdge(g *graph.Graph, in, out *lcl.Labeling, e graph.EdgeID) error {
	pin, pout := p.decoded(g, in, out)
	if pin.err != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "composite input: %v", pin.err)
	}
	ed := g.Edge(e)
	u, v := ed.U.Node, ed.V.Node
	if pout.errs[u] != nil || pout.errs[v] != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "endpoint output undecodable")
	}

	// Constraint 1, edge part.
	if pin.scope(e) {
		if out.Edge[e] != LabPsiEdge {
			return lcl.Violation(p.Name(), "edge", int(e), "gadget edge output %q, want %q", out.Edge[e], LabPsiEdge)
		}
	} else if out.Edge[e] != "" {
		return lcl.Violation(p.Name(), "edge", int(e), "port edge output %q, want ε", out.Edge[e])
	}

	uErr := errorproof.IsErrorLabel(pout.psi.Node[u])
	vErr := errorproof.IsErrorLabel(pout.psi.Node[v])

	if pin.scope(e) {
		// Constraint 6, gadget edges: equal Σlist unless excused.
		if uErr || vErr {
			return nil
		}
		if pout.sigma[u] != pout.sigma[v] {
			return lcl.Violation(p.Name(), "edge", int(e), "Σlist differs across gadget edge")
		}
		return nil
	}

	// Port edges: constraints 4 and 6.
	gu, errU := gadget.ParseNodeInput(pin.gad.Node[u])
	gv, errV := gadget.ParseNodeInput(pin.gad.Node[v])
	if errU != nil || errV != nil {
		// Unparseable inputs already trip the node-side Ψ constraint.
		return nil
	}
	// Constraint 4.
	for _, side := range []struct {
		self, other           graph.NodeID
		selfPort, otherPort   int
		selfErrL, otherErrL   bool
		selfLabel, otherLabel lcl.Label
	}{
		{u, v, gu.Port, gv.Port, uErr, vErr, pout.portErr[u], pout.portErr[v]},
		{v, u, gv.Port, gu.Port, vErr, uErr, pout.portErr[v], pout.portErr[u]},
	} {
		if side.selfPort == 0 {
			continue
		}
		bothOkPorts := side.otherPort > 0 && !side.selfErrL && !side.otherErrL
		if bothOkPorts && side.selfLabel == PortErr1 {
			return lcl.Violation(p.Name(), "edge", int(e), "PortErr1 between two GadOk ports (constraint 4)")
		}
		if (side.otherPort == 0 || side.selfErrL || side.otherErrL) && side.selfLabel == NoPortErr {
			return lcl.Violation(p.Name(), "edge", int(e), "NoPortErr toward NoPort/erroring partner (constraint 4)")
		}
	}
	// Constraint 6, port edges: only between mutually valid ports.
	if uErr || vErr || gu.Port == 0 || gv.Port == 0 {
		return nil
	}
	if pout.portErr[u] != NoPortErr || pout.portErr[v] != NoPortErr {
		return nil
	}
	if pout.sl[u].err != nil || pout.sl[v].err != nil {
		return lcl.Violation(p.Name(), "edge", int(e), "Σlist undecodable at a valid port edge")
	}
	slU, slV := pout.sl[u].sl, pout.sl[v].sl
	i, j := gu.Port, gv.Port
	if slU.IE[i-1] != slV.IE[j-1] {
		return lcl.Violation(p.Name(), "edge", int(e), "virtual edge inputs differ: %q vs %q", slU.IE[i-1], slV.IE[j-1])
	}
	if slU.OE[i-1] != slV.OE[j-1] {
		return lcl.Violation(p.Name(), "edge", int(e), "virtual edge outputs differ: %q vs %q", slU.OE[i-1], slV.OE[j-1])
	}
	if StarCheckable(p.Inner) {
		if err := p.starEdgeCheck(slU, i, slV, j); err != nil {
			return lcl.Violation(p.Name(), "edge", int(e), "virtual edge constraint: %v", err)
		}
	}
	return nil
}

// starNodeCheck materializes the hypothetical star of constraint 5's last
// bullet and runs Π's node constraint at its center.
func (p *PiPrime) starNodeCheck(sl *SigmaList) error {
	deg := len(sl.S)
	b := graph.NewBuilder(deg+1, deg)
	center := b.Node(1)
	for k := 0; k < deg; k++ {
		leaf := b.Node(int64(k + 2))
		b.Link(center, leaf)
	}
	star, err := b.Build()
	if err != nil {
		return fmt.Errorf("star: %w", err)
	}
	in := lcl.NewLabeling(star)
	out := lcl.NewLabeling(star)
	in.Node[center] = lcl.Label(sl.IV)
	out.Node[center] = lcl.Label(sl.OV)
	for k, port := range sl.S {
		e := graph.EdgeID(k)
		in.Edge[e] = lcl.Label(sl.IE[port-1])
		out.Edge[e] = lcl.Label(sl.OE[port-1])
		h := graph.Half{Edge: e, Side: graph.SideU} // center side
		in.SetHalf(h, lcl.Label(sl.IB[port-1]))
		out.SetHalf(h, lcl.Label(sl.OB[port-1]))
	}
	return p.Inner.CheckNode(star, in, out, center)
}

// starEdgeCheck materializes the hypothetical edge of constraint 6's last
// bullet and runs Π's edge constraint on it.
func (p *PiPrime) starEdgeCheck(slU *SigmaList, i int, slV *SigmaList, j int) error {
	b := graph.NewBuilder(2, 1)
	a := b.Node(1)
	c := b.Node(2)
	e := b.Link(a, c)
	pair, err := b.Build()
	if err != nil {
		return fmt.Errorf("pair: %w", err)
	}
	in := lcl.NewLabeling(pair)
	out := lcl.NewLabeling(pair)
	in.Node[a] = lcl.Label(slU.IV)
	in.Node[c] = lcl.Label(slV.IV)
	out.Node[a] = lcl.Label(slU.OV)
	out.Node[c] = lcl.Label(slV.OV)
	in.Edge[e] = lcl.Label(slU.IE[i-1])
	out.Edge[e] = lcl.Label(slU.OE[i-1])
	in.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, lcl.Label(slU.IB[i-1]))
	out.SetHalf(graph.Half{Edge: e, Side: graph.SideU}, lcl.Label(slU.OB[i-1]))
	in.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, lcl.Label(slV.IB[j-1]))
	out.SetHalf(graph.Half{Edge: e, Side: graph.SideV}, lcl.Label(slV.OB[j-1]))
	return p.Inner.CheckEdge(pair, in, out, e)
}
