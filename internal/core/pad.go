package core

import (
	"fmt"
	"math/rand"
	"sort"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// PadOptions configures padded-instance construction.
type PadOptions struct {
	// Delta is the gadget family's Δ; the base graph's maximum degree
	// must not exceed it.
	Delta int
	// GadgetHeight is the uniform sub-gadget height (>= 2). Definition 2
	// requires Θ(n)-node gadgets with Θ(log n) port distances, which
	// uniform heights provide (Section 4.7).
	GadgetHeight int
	// HeightOf, when non-nil, overrides GadgetHeight per base node:
	// Definition 3 allows different gadgets for different nodes, and the
	// paper's "challenge 2" is exactly coping with mixed gadget depths.
	HeightOf func(graph.NodeID) int
	// CorruptGadgets lists base nodes whose gadgets are corrupted after
	// construction (invalid gadgets, exercising PortErr logic; Figure 4).
	CorruptGadgets []graph.NodeID
	// IsolatedPadding adds this many isolated nodes (Lemma 5 pads hard
	// instances with isolated nodes up to size n).
	IsolatedPadding int
	// Seed drives corruption choices.
	Seed int64
}

// PaddedInstance is a graph from the family G(G) of Definition 3, with
// the composite input labeling of Π′ plus construction metadata used by
// experiments and tests.
type PaddedInstance struct {
	G  *graph.Graph
	In *lcl.Labeling
	// Base is the underlying graph (the Π instance), BaseIn its inputs.
	Base   *graph.Graph
	BaseIn *lcl.Labeling
	// NodesOf[v] lists the padded-graph nodes of base node v's gadget;
	// PortsOf[v][i] is its Portᵢ₊₁ node; CenterOf[v] its center.
	NodesOf  [][]graph.NodeID
	PortsOf  [][]graph.NodeID
	CenterOf []graph.NodeID
	// PortEdges[e] is the padded-graph edge realizing base edge e.
	PortEdges []graph.EdgeID
	// Isolated lists padding nodes outside every gadget.
	Isolated []graph.NodeID
	Opts     PadOptions
}

// Dilation returns the maximal port-to-port distance inside any single
// gadget — the per-virtual-hop communication overhead d of Theorem 1.
func (pi *PaddedInstance) Dilation() int {
	maxD := 0
	for _, ports := range pi.PortsOf {
		if len(ports) == 0 {
			continue
		}
		dist := pi.G.BFSFrom(ports[0], -1)
		for _, q := range ports[1:] {
			if d, ok := dist[q]; ok && d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// BuildPadded constructs a padded graph per Definition 3: every base node
// becomes a gadget; every base edge {u,v} on ports a,b becomes a PortEdge
// between Port_{a+1} of u's gadget and Port_{b+1} of v's gadget. Base
// input labels ride along: the base node input on the gadget's Port1 node,
// base edge and half inputs on the port edges.
func BuildPadded(base *graph.Graph, baseIn *lcl.Labeling, opts PadOptions) (*PaddedInstance, error) {
	if opts.Delta < 2 {
		return nil, fmt.Errorf("build padded: delta %d < 2", opts.Delta)
	}
	if base.MaxDegree() > opts.Delta {
		return nil, fmt.Errorf("build padded: base degree %d exceeds Δ=%d", base.MaxDegree(), opts.Delta)
	}
	heightOf := func(v graph.NodeID) int {
		if opts.HeightOf != nil {
			return opts.HeightOf(v)
		}
		return opts.GadgetHeight
	}
	// Prototype gadgets, one per distinct height (Definition 3 allows
	// mixing gadgets across nodes).
	protos := make(map[int]*gadget.Gadget)
	protoFor := func(v graph.NodeID) (*gadget.Gadget, error) {
		h := heightOf(v)
		if p, ok := protos[h]; ok {
			return p, nil
		}
		p, err := gadget.BuildUniform(opts.Delta, h)
		if err != nil {
			return nil, err
		}
		protos[h] = p
		return p, nil
	}

	// Copy one gadget per base node into the big builder. Blocks follow
	// ascending base identifier so that virtual identifiers (min gadget
	// id, per Lemma 4) are order-isomorphic to base identifiers.
	order := make([]graph.NodeID, base.NumNodes())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool { return base.ID(order[a]) < base.ID(order[b]) })

	total := opts.IsolatedPadding
	for v := graph.NodeID(0); int(v) < base.NumNodes(); v++ {
		p, err := protoFor(v)
		if err != nil {
			return nil, fmt.Errorf("build padded: %w", err)
		}
		total += p.NumNodes()
	}
	b := graph.NewBuilder(total, total*3)
	inst := &PaddedInstance{
		Base:     base,
		BaseIn:   baseIn,
		NodesOf:  make([][]graph.NodeID, base.NumNodes()),
		PortsOf:  make([][]graph.NodeID, base.NumNodes()),
		CenterOf: make([]graph.NodeID, base.NumNodes()),
		Opts:     opts,
	}
	type labeledHalf struct {
		h   graph.Half
		lab lcl.Label
	}
	var gadHalves []labeledHalf
	var gadEdges []graph.EdgeID
	nodeLabels := make(map[graph.NodeID]lcl.Label, total)
	var nextID int64 = 1

	// compose is Compose in sticky-error form for this construction loop;
	// the first failure is surfaced once, after assembly.
	var composeErr error
	compose := func(parts ...lcl.Label) lcl.Label {
		lab, err := Compose(parts...)
		if err != nil && composeErr == nil {
			composeErr = err
		}
		return lab
	}

	for _, bv := range order {
		proto, err := protoFor(bv)
		if err != nil {
			return nil, fmt.Errorf("build padded: %w", err)
		}
		perGadget := proto.NumNodes()
		m := make([]graph.NodeID, perGadget)
		for x := graph.NodeID(0); int(x) < perGadget; x++ {
			m[x] = b.Node(nextID)
			nextID++
		}
		for e := graph.EdgeID(0); int(e) < proto.G.NumEdges(); e++ {
			ed := proto.G.Edge(e)
			ne, err := b.AddEdge(m[ed.U.Node], m[ed.V.Node])
			if err != nil {
				return nil, fmt.Errorf("build padded: %w", err)
			}
			gadEdges = append(gadEdges, ne)
			for _, side := range []graph.Side{graph.SideU, graph.SideV} {
				lab := proto.In.HalfOf(graph.Half{Edge: e, Side: side})
				gadHalves = append(gadHalves, labeledHalf{h: graph.Half{Edge: ne, Side: side}, lab: lab})
			}
		}
		for x := graph.NodeID(0); int(x) < perGadget; x++ {
			pi := lcl.Label("")
			if proto.Ports[0] == x {
				pi = baseIn.Node[bv] // the virtual node's input lives on Port1
			}
			nodeLabels[m[x]] = compose(pi, proto.In.Node[x])
		}
		nodes := make([]graph.NodeID, perGadget)
		copy(nodes, m)
		inst.NodesOf[bv] = nodes
		ports := make([]graph.NodeID, opts.Delta)
		for i, p := range proto.Ports {
			ports[i] = m[p]
		}
		inst.PortsOf[bv] = ports
		inst.CenterOf[bv] = m[proto.Center]
	}

	// Port edges realize base edges: base port a (0-based) attaches at
	// gadget port a+1.
	inst.PortEdges = make([]graph.EdgeID, base.NumEdges())
	type portHalf struct {
		h   graph.Half
		lab lcl.Label
	}
	var portHalves []portHalf
	for e := graph.EdgeID(0); int(e) < base.NumEdges(); e++ {
		ed := base.Edge(e)
		pu := inst.PortsOf[ed.U.Node][ed.U.Port]
		pv := inst.PortsOf[ed.V.Node][ed.V.Port]
		ne, err := b.AddEdge(pu, pv)
		if err != nil {
			return nil, fmt.Errorf("build padded port edge: %w", err)
		}
		inst.PortEdges[e] = ne
		portHalves = append(portHalves,
			portHalf{h: graph.Half{Edge: ne, Side: graph.SideU}, lab: baseIn.HalfOf(graph.Half{Edge: e, Side: graph.SideU})},
			portHalf{h: graph.Half{Edge: ne, Side: graph.SideV}, lab: baseIn.HalfOf(graph.Half{Edge: e, Side: graph.SideV})})
	}

	// Isolated padding nodes (Lemma 5's H'').
	for i := 0; i < opts.IsolatedPadding; i++ {
		v := b.Node(nextID)
		nextID++
		nodeLabels[v] = compose("", gadget.NodeInput{Index: 1}.Label())
		inst.Isolated = append(inst.Isolated, v)
	}

	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("build padded: %w", err)
	}
	in := lcl.NewLabeling(g)
	for v, lab := range nodeLabels {
		in.Node[v] = lab
	}
	for i, ne := range gadEdges {
		_ = i
		in.Edge[ne] = compose("", MarkGadEdge)
	}
	for _, lh := range gadHalves {
		in.SetHalf(lh.h, compose("", lh.lab))
	}
	for e := graph.EdgeID(0); int(e) < base.NumEdges(); e++ {
		in.Edge[inst.PortEdges[e]] = compose(baseIn.Edge[e], MarkPortEdge)
	}
	for _, ph := range portHalves {
		in.SetHalf(ph.h, compose(ph.lab, ""))
	}
	inst.G = g
	inst.In = in

	// Corrupt requested gadgets by scrambling one interior node's input:
	// the gadget becomes invalid and its nodes must prove the error.
	if len(opts.CorruptGadgets) > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		for _, bv := range opts.CorruptGadgets {
			if int(bv) >= base.NumNodes() {
				return nil, fmt.Errorf("build padded: corrupt target %d out of range", bv)
			}
			nodes := inst.NodesOf[bv]
			victim := nodes[rng.Intn(len(nodes))]
			in.Node[victim] = compose("", lcl.Label("Index:999"))
		}
	}
	if composeErr != nil {
		return nil, fmt.Errorf("build padded: %w", composeErr)
	}
	return inst, nil
}

// EdgeClass decodes an edge's class mark; it errors on non-composite
// labels.
func EdgeClass(in *lcl.Labeling, e graph.EdgeID) (lcl.Label, error) {
	var parts [inParts]lcl.Label
	if err := splitInto(in.Edge[e], parts[:]); err != nil {
		return "", err
	}
	return parts[1], nil
}

// GadScope returns the Scope predicate selecting gadget edges of the
// instance labeling (used by the Ψ machinery and Π′ constraints). An
// undecodable edge label is out of scope.
func GadScope(g *graph.Graph, in *lcl.Labeling) func(graph.EdgeID) bool {
	classes := make([]bool, g.NumEdges())
	for e := range classes {
		cls, err := EdgeClass(in, graph.EdgeID(e))
		classes[e] = err == nil && cls == MarkGadEdge
	}
	return scopeOf(classes)
}

func scopeOf(classes []bool) func(graph.EdgeID) bool {
	return func(e graph.EdgeID) bool { return classes[e] }
}

// GadInputs projects the composite input labeling onto the gadget layer
// (node labels, half labels) so the Section-4 checkers can run on it.
func GadInputs(g *graph.Graph, in *lcl.Labeling) (*lcl.Labeling, error) {
	gad := lcl.NewLabeling(g)
	if err := projectInputs(in, [inParts]*lcl.Labeling{1: gad}); err != nil {
		return nil, err
	}
	return gad, nil
}

// PiInputs projects the composite input labeling onto the Π layer.
func PiInputs(g *graph.Graph, in *lcl.Labeling) (*lcl.Labeling, error) {
	pi := lcl.NewLabeling(g)
	if err := projectInputs(in, [inParts]*lcl.Labeling{0: pi}); err != nil {
		return nil, err
	}
	return pi, nil
}

// decodeInputs is GadInputs, PiInputs and GadScope in one pass: each
// composite input label is split once. On success the scope equals
// GadScope's; the error is GadInputs's.
func decodeInputs(g *graph.Graph, in *lcl.Labeling) (gad, pi *lcl.Labeling, scope func(graph.EdgeID) bool, err error) {
	gad, pi = lcl.NewLabeling(g), lcl.NewLabeling(g)
	if err := projectInputs(in, [inParts]*lcl.Labeling{pi, gad}); err != nil {
		return nil, nil, nil, err
	}
	classes := make([]bool, len(gad.Edge))
	for e, cls := range gad.Edge {
		classes[e] = cls == MarkGadEdge
	}
	return gad, pi, scopeOf(classes), nil
}

// projectInputs splits every composite input label of in once, nodes
// first, then edges, then halves, and writes part k into dst[k] when
// dst[k] is non-nil. It stops at the first undecodable label.
func projectInputs(in *lcl.Labeling, dst [inParts]*lcl.Labeling) error {
	layers := [...]struct {
		kind string
		of   func(*lcl.Labeling) []lcl.Label
	}{
		{"node", func(l *lcl.Labeling) []lcl.Label { return l.Node }},
		{"edge", func(l *lcl.Labeling) []lcl.Label { return l.Edge }},
		{"half", func(l *lcl.Labeling) []lcl.Label { return l.Half }},
	}
	var parts [inParts]lcl.Label
	for _, layer := range layers {
		var out [inParts][]lcl.Label
		for k, d := range dst {
			if d != nil {
				out[k] = layer.of(d)
			}
		}
		for i, l := range layer.of(in) {
			if err := splitInto(l, parts[:]); err != nil {
				return fmt.Errorf("%s %d: %w", layer.kind, i, err)
			}
			for k := range out {
				if out[k] != nil {
					out[k][i] = parts[k]
				}
			}
		}
	}
	return nil
}
