package core

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// This file defines the inner algorithm as a *native machine* on the
// virtual graph H. Lemma 4 treats the inner Π-solver as a black box whose
// T-round execution is simulated through the gadgets; here that black box
// becomes a message-passing machine in the LOCAL model's full-information
// normal form: every round a virtual node broadcasts everything it knows
// on every incident virtual edge, merges what it receives, and stops once
// its knowledge is stable. After stabilization a node's knowledge is its
// entire connected component of H, from which the algorithm's decision
// function computes the node's outputs — the standard "gather the ball,
// then decide" equivalence of the LOCAL model (local package docs,
// formulation 2).
//
// Knowledge travels as fixed-width word vectors over a FactTable: one bit
// per virtual node and one bit per virtual edge. The codebook mapping
// bits back to facts (identifiers, port structure, inner input labels) is
// shared read-only infrastructure, exactly like the identifier space
// itself; the *information flow* — who has learned which fact by which
// round — is carried entirely by the exchanged payloads. Word-vector
// payloads are OR-monotone (idempotent, commutative, associative), which
// is what lets the physical relay plane (relay.go) flood-forward them
// through gadget interiors without per-port bookkeeping and still stay
// byte-deterministic for every worker/shard geometry.

// VirtualNodeInfo is the initial knowledge of one virtual node: its
// position and identifier in H, the payload width, the master seed, and
// the fact-table codebook.
type VirtualNodeInfo struct {
	// Node is the machine's virtual node (index into H).
	Node graph.NodeID
	// ID is the virtual identifier (the minimal physical identifier of
	// the gadget, per the paper's virtual-ID rule). Randomized machines
	// must derive their streams from (seed, ID) — never from shard or
	// worker state — so sharded runs stay byte-identical.
	ID int64
	// Degree is the virtual degree.
	Degree int
	// Words is the payload width in 64-bit words.
	Words int
	// Seed is the master seed of the solve.
	Seed int64
	// Table is the fact-table codebook of the instance.
	Table *FactTable
}

// VirtualMachine is the inner algorithm as a typed machine on the virtual
// graph H. Payloads are knowledge word vectors over the instance's
// FactTable; Round receives the OR of the payloads delivered since the
// previous call and writes the machine's outgoing broadcast payload.
// Machines must be OR-monotone broadcasters (the outgoing payload is the
// same on every edge and never shrinks): that is the contract that makes
// the physical relay realization (RunRelay) equivalent to the exact
// virtual-round execution (RunVirtual). Every T-round LOCAL algorithm
// lifts to this normal form through full-information gathering.
type VirtualMachine interface {
	// Init resets the machine to its initial knowledge.
	Init(info VirtualNodeInfo)
	// Round merges recv (the union of payloads received this round; zero
	// words on the first call) into the machine's knowledge and fills
	// send (caller-owned, len = info.Words) with its outgoing payload.
	// It returns true once the machine's knowledge has stabilized. recv
	// and send are only valid during the call. Round must not allocate
	// in steady state: the relay round loop is pinned to 0 allocs/op.
	Round(recv, send []uint64) bool
	// Rounds reports how many rounds the machine needed to stabilize:
	// its charged virtual-round locality.
	Rounds() int
	// Finish decodes the machine's final knowledge and writes the output
	// labels of its entire known component into out (a labeling of H).
	// Machines of one component hold identical final knowledge and
	// compute identical labels, so runners invoke Finish once per
	// component and share the result — collapsing the LOCAL model's
	// redundant per-node recomputation without changing any output.
	Finish(out *lcl.Labeling) error
}

// FactTable enumerates the facts of a virtual graph: bit v for virtual
// node v (its identifier and inner input label), bit |V(H)|+e for virtual
// edge e (its endpoints and inner edge/half input labels). A knowledge
// payload is a bitset over this enumeration, packed into 64-bit words.
type FactTable struct {
	vg    *VirtualGraph
	nodes int
	edges int
	words int
}

// NewFactTable builds the codebook for a virtual graph.
func NewFactTable(vg *VirtualGraph) *FactTable {
	nodes := vg.NumVirtualNodes()
	edges := 0
	if vg.H != nil {
		edges = vg.H.NumEdges()
	}
	bits := nodes + edges
	return &FactTable{vg: vg, nodes: nodes, edges: edges, words: (bits + 63) / 64}
}

// Words is the payload width in 64-bit words.
func (t *FactTable) Words() int { return t.words }

// NumFacts is the total number of enumerated facts.
func (t *FactTable) NumFacts() int { return t.nodes + t.edges }

func setBit(w []uint64, i int)      { w[i>>6] |= 1 << (uint(i) & 63) }
func hasBit(w []uint64, i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }
func orInto(dst, src []uint64) bool {
	changed := false
	for i, s := range src {
		if s&^dst[i] != 0 {
			dst[i] |= s
			changed = true
		}
	}
	return changed
}

// SeedWords writes virtual node vi's initial knowledge into w: its own
// node fact plus its incident edge facts (a node knows its port structure
// at round zero; the neighbors' node facts arrive with the first
// exchange).
func (t *FactTable) SeedWords(vi graph.NodeID, w []uint64) {
	for i := range w {
		w[i] = 0
	}
	setBit(w, int(vi))
	for _, h := range t.vg.H.Halves(vi) {
		setBit(w, t.nodes+int(h.Edge))
	}
}

// KnownSub is a reconstructed known subgraph of H: the graph induced by
// the node and edge facts of a final knowledge payload, with identifiers,
// per-node port order, and relative edge order preserved — the exact
// invariants under which the centralized inner solvers are
// component-decomposable, so running them on the reconstruction yields
// the labels of the full-H run restricted to the component.
type KnownSub struct {
	G  *graph.Graph
	In *lcl.Labeling
	// Nodes maps local node indices back to H node indices; Edges maps
	// local edge indices back to H edge indices.
	Nodes []graph.NodeID
	Edges []graph.EdgeID
}

// Reconstruct decodes a final knowledge payload into the induced known
// subgraph. It fails loudly when the knowledge is not closed (a known
// edge with an unknown endpoint, or a known node missing incident
// edges): a correct relay run always terminates at the full-component
// fixpoint.
func (t *FactTable) Reconstruct(w []uint64) (*KnownSub, error) {
	ks := &KnownSub{}
	localOf := make(map[graph.NodeID]graph.NodeID)
	for vi := 0; vi < t.nodes; vi++ {
		if hasBit(w, vi) {
			localOf[graph.NodeID(vi)] = graph.NodeID(len(ks.Nodes))
			ks.Nodes = append(ks.Nodes, graph.NodeID(vi))
		}
	}
	b := graph.NewBuilder(len(ks.Nodes), 0)
	for _, hi := range ks.Nodes {
		if _, err := b.AddNode(t.vg.H.ID(hi)); err != nil {
			return nil, fmt.Errorf("reconstruct: %w", err)
		}
	}
	// Edges in ascending H edge order: the relative order (and therefore
	// the per-node half order of the CSR) matches H's.
	for e := 0; e < t.edges; e++ {
		if !hasBit(w, t.nodes+e) {
			continue
		}
		ed := t.vg.H.Edge(graph.EdgeID(e))
		lu, okU := localOf[ed.U.Node]
		lv, okV := localOf[ed.V.Node]
		if !okU || !okV {
			return nil, fmt.Errorf("reconstruct: edge fact %d has unknown endpoint", e)
		}
		if _, err := b.AddEdge(lu, lv); err != nil {
			return nil, fmt.Errorf("reconstruct: %w", err)
		}
		ks.Edges = append(ks.Edges, graph.EdgeID(e))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("reconstruct: %w", err)
	}
	ks.G = g
	for li, hi := range ks.Nodes {
		if ks.G.Degree(graph.NodeID(li)) != t.vg.H.Degree(hi) {
			return nil, fmt.Errorf("reconstruct: node fact %d incomplete: degree %d, want %d",
				hi, ks.G.Degree(graph.NodeID(li)), t.vg.H.Degree(hi))
		}
	}
	// Inner inputs, transcribed through the index maps.
	ks.In = lcl.NewLabeling(g)
	for li, hi := range ks.Nodes {
		ks.In.Node[li] = t.vg.In.Node[hi]
	}
	for le, he := range ks.Edges {
		ks.In.Edge[le] = t.vg.In.Edge[he]
		for _, side := range []graph.Side{graph.SideU, graph.SideV} {
			ks.In.SetHalf(graph.Half{Edge: graph.EdgeID(le), Side: side},
				t.vg.In.HalfOf(graph.Half{Edge: he, Side: side}))
		}
	}
	return ks, nil
}

// GatherMachine is the full-information normal form of an inner solver:
// knowledge flooding until stabilization, then the centralized solver as
// the decision function on the reconstructed component. It is how the
// deterministic and the randomized sinkless solvers (and, through the
// recursive PaddedSolver, every higher hierarchy level) run as native
// machines on H.
type GatherMachine struct {
	// Inner is the decision function: the centralized solver applied to
	// the reconstructed component.
	Inner lcl.Solver

	info    VirtualNodeInfo
	know    []uint64
	calls   int
	rounds  int
	settled bool
}

var _ VirtualMachine = (*GatherMachine)(nil)

// NewGatherMachine wraps an inner solver as a virtual machine.
func NewGatherMachine(inner lcl.Solver) *GatherMachine {
	return &GatherMachine{Inner: inner}
}

// Init implements VirtualMachine.
func (m *GatherMachine) Init(info VirtualNodeInfo) {
	m.info = info
	if len(m.know) != info.Words {
		m.know = make([]uint64, info.Words)
	}
	info.Table.SeedWords(info.Node, m.know)
	m.calls = 0
	m.rounds = 0
	m.settled = false
}

// Round implements VirtualMachine: OR-merge and re-broadcast. The machine
// settles on the first round (after the initial exchange) in which it
// learns nothing new — with full-information payloads that round
// certifies the knowledge is the whole component. A later delivery that
// does bring news (possible under the relay plane's elastic schedule)
// un-settles the machine until stability is re-certified, so Rounds
// always reports the certification round of the final knowledge.
func (m *GatherMachine) Round(recv, send []uint64) bool {
	m.calls++
	changed := orInto(m.know, recv)
	if changed || m.calls < 2 {
		m.settled = false
	} else if !m.settled {
		m.settled = true
		m.rounds = m.calls
	}
	copy(send, m.know)
	return m.settled
}

// Rounds implements VirtualMachine.
func (m *GatherMachine) Rounds() int { return m.rounds }

// Finish implements VirtualMachine: reconstruct the component, run the
// inner solver on it, and transcribe the component's labels into the
// H labeling. Identifiers, port order, and relative edge order are
// preserved by Reconstruct, and randomized solvers derive their streams
// from (seed, identifier), so the result is byte-identical to the
// centralized full-H solve restricted to the component — for every
// worker/shard geometry.
func (m *GatherMachine) Finish(out *lcl.Labeling) error {
	ks, err := m.info.Table.Reconstruct(m.know)
	if err != nil {
		return fmt.Errorf("virtual machine %d: %w", m.info.Node, err)
	}
	sub, _, err := m.Inner.Solve(ks.G, ks.In, m.info.Seed)
	if err != nil {
		return fmt.Errorf("virtual machine %d inner solve: %w", m.info.Node, err)
	}
	for li, hi := range ks.Nodes {
		out.Node[hi] = sub.Node[li]
	}
	for le, he := range ks.Edges {
		out.Edge[he] = sub.Edge[graph.EdgeID(le)]
		for _, side := range []graph.Side{graph.SideU, graph.SideV} {
			out.SetHalf(graph.Half{Edge: he, Side: side},
				sub.HalfOf(graph.Half{Edge: graph.EdgeID(le), Side: side}))
		}
	}
	return nil
}

// GatherFactory builds one GatherMachine per virtual node around an inner
// solver.
func GatherFactory(inner lcl.Solver) func(vi graph.NodeID) VirtualMachine {
	return func(graph.NodeID) VirtualMachine { return NewGatherMachine(inner) }
}

// vmMsg is the typed engine payload of the exact virtual-round execution:
// a read-only view of the sender's double-buffered broadcast payload.
type vmMsg struct {
	Words []uint64
}

// vmAdapter runs one VirtualMachine as an engine.TypedMachine on H. The
// outgoing payload alternates between two machine-owned buffers so a
// receiver can read round r's view while the sender writes round r+1's —
// the same discipline as the relay machines.
type vmAdapter struct {
	vm      VirtualMachine
	info    VirtualNodeInfo
	scratch []uint64
	out     [2][]uint64
	round   int
}

var _ engine.TypedMachine[vmMsg] = (*vmAdapter)(nil)

func (a *vmAdapter) Init(engine.NodeInfo) {
	a.round = 0
	a.vm.Init(a.info)
}

func (a *vmAdapter) Round(recv, send []vmMsg) bool {
	a.round++
	for i := range a.scratch {
		a.scratch[i] = 0
	}
	if a.round > 1 {
		for p := range recv {
			if recv[p].Words != nil {
				orInto(a.scratch, recv[p].Words)
			}
		}
	}
	buf := a.out[a.round&1]
	done := a.vm.Round(a.scratch, buf)
	for p := range send {
		send[p] = vmMsg{Words: buf}
	}
	return done
}

// VirtualRun is the outcome of an exact virtual-round execution on H.
type VirtualRun struct {
	// Out is the inner output labeling on H.
	Out *lcl.Labeling
	// Rounds[vi] is virtual node vi's charged virtual rounds.
	Rounds []int
	// Stats is the engine profile of the session on H.
	Stats engine.Stats
}

// RunVirtual executes virtual machines directly on H through the typed
// engine core: the exact one-hop-per-round reference semantics that the
// physical relay plane (RunRelay) dilates through the gadgets. Both
// executions terminate at the same full-component fixpoint and produce
// identical labelings; the differential tests pin this.
func RunVirtual(eng *engine.Engine, vg *VirtualGraph, table *FactTable,
	mk func(vi graph.NodeID) VirtualMachine, seed int64) (*VirtualRun, error) {

	nv := vg.NumVirtualNodes()
	if nv == 0 {
		return nil, fmt.Errorf("run virtual: no valid gadgets")
	}
	adapters := make([]vmAdapter, nv)
	typed := make([]engine.TypedMachine[vmMsg], nv)
	for vi := 0; vi < nv; vi++ {
		v := graph.NodeID(vi)
		adapters[vi] = vmAdapter{
			vm: mk(v),
			info: VirtualNodeInfo{
				Node: v, ID: vg.H.ID(v), Degree: vg.H.Degree(v),
				Words: table.Words(), Seed: seed, Table: table,
			},
			scratch: make([]uint64, table.Words()),
			out:     [2][]uint64{make([]uint64, table.Words()), make([]uint64, table.Words())},
		}
		typed[vi] = &adapters[vi]
	}
	stats, err := engine.NewCore[vmMsg](eng.Options()).RunStats(vg.H, typed, seed, false, 2*nv+8)
	if err != nil {
		return nil, fmt.Errorf("run virtual: %w", err)
	}
	run := &VirtualRun{Out: lcl.NewLabeling(vg.H), Rounds: make([]int, nv), Stats: stats}
	for vi := range adapters {
		run.Rounds[vi] = adapters[vi].vm.Rounds()
	}
	if err := finishComponents(vg, func(vi graph.NodeID) VirtualMachine { return adapters[vi].vm }, run.Out); err != nil {
		return nil, fmt.Errorf("run virtual: %w", err)
	}
	return run, nil
}

// finishComponents invokes Finish on one machine per connected component
// of H (the minimal virtual index), in ascending order: machines of one
// component hold identical knowledge and would write identical labels.
func finishComponents(vg *VirtualGraph, vmOf func(vi graph.NodeID) VirtualMachine, out *lcl.Labeling) error {
	nv := vg.NumVirtualNodes()
	seen := make([]bool, nv)
	for vi := 0; vi < nv; vi++ {
		if seen[vi] {
			continue
		}
		queue := []graph.NodeID{graph.NodeID(vi)}
		seen[vi] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, h := range vg.H.Halves(x) {
				y := vg.H.Edge(h.Edge).Other(h.Side).Node
				if !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
		if err := vmOf(graph.NodeID(vi)).Finish(out); err != nil {
			return err
		}
	}
	return nil
}
