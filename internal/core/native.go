package core

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// The native relay plane: constant-bandwidth inner machines over the
// gadgets. Where the gather machines (vm.go) flood component-sized
// knowledge vectors until stabilization and then run a centralized
// decision function, a native machine executes the inner protocol's real
// rounds — one bounded word per incident virtual edge per round — so the
// payload a session moves is O(1) words per virtual edge per protocol
// round instead of O(|H|) words per physical edge per physical round.
//
// Transport is slot-routed rather than flooded. Each valid gadget keeps
// a table of 2·deg(vi) slots — OUT_p, the hosted machine's current
// outgoing word for virtual port p, and IN_p, the neighbor's latest word
// arriving at that port. Records travel only along precomputed routes: a
// BFS tree from the gadget's host node carries OUT_p down to the Port
// node realizing p, the Port node rewrites it across the port edge as
// the neighbor gadget's IN_p′, and the parent chain carries IN records
// back up to the host. A record is forwarded only when its slot's value
// changed (value semantics: a receiver holding the previous value is
// indistinguishable from one that just received an identical word), so
// quiescent protocol phases cost nothing.
//
// Scheduling is global lockstep. The host runs protocol round k at
// physical round k·L + 1, where the session's super-round length
//
//	L = max over virtual edges (dist_A(host_A, port_A) + dist_B(host_B, port_B) + 1)
//
// is measured at plan time from the per-gadget host placements (host =
// the gadget node minimizing the maximum distance to its active ports).
// A word produced at round (k-1)·L + 1 reaches the far host strictly
// before round k·L + 1, so every machine observes exactly the messages
// of the one-hop-per-round execution on H and the whole session is
// byte-identical to running the protocol directly on H — for every
// worker/shard geometry.

// maxNativePorts bounds the virtual degree a native machine supports:
// slot tables and transport records are fixed-size arrays so the round
// loop stays allocation-free.
const maxNativePorts = 8

// maxNatSlots is the slot-table width: OUT and IN per virtual port.
const maxNatSlots = 2 * maxNativePorts

// nativeMaxVMRounds caps the hosted protocol's round count (matching the
// message solver's own cap); the physical cap is L times it.
const nativeMaxVMRounds = 4096

// PortMachine is an inner protocol in bounded-bandwidth normal form: one
// 64-bit word per incident virtual edge per round, against the gather
// machines' component-sized knowledge vectors. Unlike a GatherMachine,
// whose Finish decodes labels for its whole known component, a port
// machine's Finish writes only its own node's labels — every virtual
// node's machine is finished by the runner.
type PortMachine interface {
	// Init resets the machine. Randomized protocols must derive their
	// stream from (info.Seed, info.ID), never from scheduling state.
	Init(info VirtualNodeInfo)
	// Round runs one protocol round: recv[p] is the word the neighbor
	// across virtual port p sent last round (zero on the first call),
	// send[p] receives this round's outgoing word for port p. Both have
	// length info.Degree and are only valid during the call. It returns
	// true once the machine has locally terminated. Round must not
	// allocate in steady state.
	Round(recv, send []uint64) bool
	// Rounds reports the protocol round at which the machine most
	// recently terminated: its charged virtual-round locality.
	Rounds() int
	// Finish writes the machine's own node's output labels into out (a
	// labeling of H).
	Finish(out *lcl.Labeling) error
}

// NativeFactory builds one PortMachine per virtual node.
type NativeFactory func(vi graph.NodeID) PortMachine

// nativeFactoryFor returns the native port-machine factory for an inner
// solver on a given virtual graph, or nil when the inner has no native
// constant-bandwidth protocol (callers fall back to gather machines).
// The sinkless message solver is native whenever the virtual graph fits
// the fixed-width slot tables and passes the solver's own solvability
// precheck (an unsolvable H must surface the message solver's error,
// which the gather fallback reproduces exactly).
func nativeFactoryFor(inner lcl.Solver, vg *VirtualGraph) NativeFactory {
	if vg.H == nil || vg.H.MaxDegree() > maxNativePorts {
		return nil
	}
	switch inner.Name() {
	case sinkless.MessageSolverName:
		if sinkless.CheckSolvable(vg.H) != nil {
			return nil
		}
		return func(graph.NodeID) PortMachine { return &sinklessNative{} }
	}
	return nil
}

// sinklessNative hosts the sinkless-orientation protocol as a native
// port machine: 8 payload bits per virtual edge per round. Neighbor
// identifiers never travel — they are reconstructed from the static
// topology — and the RNG stream is pinned to (seed, virtual identifier)
// exactly as the engine pins it for a direct run on H, so the state
// evolution is byte-identical to the message solver's.
type sinklessNative struct {
	info   VirtualNodeInfo
	proto  *sinkless.Protocol
	nbrID  []int64
	recvW  []sinkless.Wire
	sendW  []sinkless.Wire
	calls  int
	rounds int
	done   bool
}

var _ PortMachine = (*sinklessNative)(nil)

// Init implements PortMachine.
func (m *sinklessNative) Init(info VirtualNodeInfo) {
	m.info = info
	m.proto = sinkless.NewProtocol(info.ID, info.Degree, engine.DeriveRNG(info.Seed, info.ID))
	H := info.Table.vg.H
	m.nbrID = make([]int64, info.Degree)
	for p := 0; p < info.Degree; p++ {
		nbr, _ := H.NeighborAt(info.Node, int32(p))
		m.nbrID[p] = H.ID(nbr)
	}
	m.recvW = make([]sinkless.Wire, info.Degree)
	m.sendW = make([]sinkless.Wire, info.Degree)
	m.calls = 0
	m.rounds = 0
	m.done = false
}

// Round implements PortMachine.
func (m *sinklessNative) Round(recv, send []uint64) bool {
	m.calls++
	for p := range m.recvW {
		m.recvW[p] = sinkless.UnpackWire(recv[p], m.nbrID[p])
	}
	done := m.proto.Step(m.recvW, m.sendW)
	for p := range m.sendW {
		send[p] = sinkless.PackWire(m.sendW[p])
	}
	if done && !m.done {
		m.rounds = m.calls
	}
	m.done = done
	return done
}

// Rounds implements PortMachine.
func (m *sinklessNative) Rounds() int { return m.rounds }

// Finish implements PortMachine: transcribe the node's port orientations
// into half-edge labels, exactly as the message solver labels a direct
// run on H.
func (m *sinklessNative) Finish(out *lcl.Labeling) error {
	H := m.info.Table.vg.H
	for p := 0; p < m.info.Degree; p++ {
		h := H.HalfAt(m.info.Node, int32(p))
		if m.proto.Out(p) {
			out.SetHalf(h, sinkless.LabelOut)
		} else {
			out.SetHalf(h, sinkless.LabelIn)
		}
	}
	return nil
}

// natMsg is one physical hop's worth of slot records: the changed slots
// a node forwards to one neighbor this round. Fixed-size arrays keep the
// round loop allocation-free; n bounds the live prefix.
type natMsg struct {
	n    uint8
	slot [maxNatSlots]uint8
	val  [maxNatSlots]uint64
}

// natMachine is the per-physical-node transport of the native relay
// plane: a slot table plus a static route per slot. Host nodes
// additionally run the gadget's PortMachine every L-th round.
type natMachine struct {
	// nslots is 2·deg(vi) for nodes of a valid gadget, 0 elsewhere.
	nslots int32
	// route[s] is the outgoing physical port of slot s (-1: this node is
	// the slot's terminus or off its path); relabel[s] is the slot
	// identifier forwarded records carry — the neighbor gadget's IN slot
	// at port crossings, s itself everywhere else.
	route   [maxNatSlots]int8
	relabel [maxNatSlots]uint8

	vals  [maxNatSlots]uint64
	fresh [maxNatSlots]bool

	// L is the lockstep super-round length; host marks the node hosting
	// the gadget's machine.
	L      int32
	host   bool
	pm     PortMachine
	pmInfo VirtualNodeInfo
	recvW  []uint64
	sendW  []uint64
	pmDone bool

	round int32
	// sent counts payload words handed to the transport (one per
	// record), the native plane's bandwidth tally.
	sent int64
}

var _ engine.TypedMachine[natMsg] = (*natMachine)(nil)

func (m *natMachine) Init(engine.NodeInfo) {
	m.round = 0
	m.sent = 0
	m.pmDone = false
	for s := range m.vals {
		m.vals[s] = 0
		m.fresh[s] = false
	}
	if m.pm != nil {
		m.pm.Init(m.pmInfo)
	}
}

func (m *natMachine) Round(recv, send []natMsg) bool {
	m.round++
	// Merge incoming records. A record only arrives when its value
	// differs from what this node holds (senders forward on change), but
	// the guard keeps re-deliveries idempotent. Records are validated
	// before use: a malformed count is clamped to the record array and a
	// slot outside this node's table is dropped — legitimate transport
	// never produces either (relabel always targets a live slot of the
	// receiver), so the checks only matter under fault injection, where
	// corrupt deliveries must degrade, never panic (FuzzNativeSlotRewrite
	// pins this).
	if m.round > 1 {
		for p := range recv {
			in := &recv[p]
			nrec := int(in.n)
			if nrec > maxNatSlots {
				nrec = maxNatSlots
			}
			for i := 0; i < nrec; i++ {
				s := in.slot[i]
				if int32(s) >= m.nslots {
					continue
				}
				if m.vals[s] != in.val[i] {
					m.vals[s] = in.val[i]
					m.fresh[s] = true
				}
			}
		}
	}
	// Hosts run one protocol round per super-round: by round k·L+1 every
	// IN slot holds the neighbor's round-(k-1) word.
	if m.host && (m.round-1)%m.L == 0 {
		for p := range m.recvW {
			m.recvW[p] = m.vals[2*p+1]
		}
		m.pmDone = m.pm.Round(m.recvW, m.sendW)
		for p := range m.sendW {
			s := 2 * p
			if m.vals[s] != m.sendW[p] {
				m.vals[s] = m.sendW[p]
				m.fresh[s] = true
			}
		}
	}
	// Forward changed slots along their routes.
	for p := range send {
		send[p].n = 0
	}
	for s := int32(0); s < m.nslots; s++ {
		if !m.fresh[s] {
			continue
		}
		m.fresh[s] = false
		r := m.route[s]
		if r < 0 {
			continue
		}
		out := &send[r]
		out.slot[out.n] = m.relabel[s]
		out.val[out.n] = m.vals[s]
		out.n++
		m.sent++
	}
	if !m.host {
		return true
	}
	return m.pmDone
}

// RunRelayNative executes the inner algorithm as native constant-
// bandwidth machines over the slot-routed relay plane. The labeling it
// produces is byte-identical to running the inner protocol directly on
// H (and therefore to the sequential oracle), while the session moves
// only changed per-port words instead of knowledge vectors.
func RunRelayNative(eng *engine.Engine, g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, table *FactTable, mk NativeFactory, seed int64) (*RelayRun, error) {

	nv := vg.NumVirtualNodes()
	if nv == 0 {
		return nil, fmt.Errorf("run native relay: no valid gadgets")
	}
	machines, pms, superLen, err := buildNativeMachines(g, scope, vg, table, mk, seed)
	if err != nil {
		return nil, fmt.Errorf("run native relay: %w", err)
	}
	n := g.NumNodes()
	typed := make([]engine.TypedMachine[natMsg], n)
	for v := range machines {
		typed[v] = &machines[v]
	}
	maxRounds := int(superLen)*nativeMaxVMRounds + 1
	stats, err := engine.NewCore[natMsg](eng.Options()).RunStats(g, typed, seed, false, maxRounds)
	if err != nil {
		return nil, fmt.Errorf("run native relay: %w", err)
	}
	run := &RelayRun{Out: lcl.NewLabeling(vg.H), Rounds: make([]int, nv), Stats: stats}
	for v := range machines {
		run.Words += machines[v].sent
	}
	// Every machine decodes its own node: no component decomposition to
	// share, unlike the gather machines' full-knowledge Finish.
	for vi := 0; vi < nv; vi++ {
		if pms[vi] == nil {
			return nil, fmt.Errorf("run native relay: virtual node %d has no hosted machine", vi)
		}
		run.Rounds[vi] = pms[vi].Rounds()
		if err := pms[vi].Finish(run.Out); err != nil {
			return nil, fmt.Errorf("run native relay: %w", err)
		}
	}
	return run, nil
}

// buildNativeMachines derives the per-physical-node transport plan: host
// placement, slot routes, the crossing relabels, and the lockstep
// super-round length L measured from the realized host-to-port
// distances.
func buildNativeMachines(g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, table *FactTable, mk NativeFactory, seed int64) ([]natMachine, []PortMachine, int32, error) {

	n := g.NumNodes()
	machines := make([]natMachine, n)
	pms := make([]PortMachine, vg.NumVirtualNodes())

	// Invert the port-edge map: virtual edge -> physical port edge.
	peOf := make(map[graph.EdgeID]graph.EdgeID, len(vg.VEdgeOf))
	for pe, ne := range vg.VEdgeOf {
		peOf[ne] = pe
	}

	// hostDist[vi][p] is the realized distance from vi's host to the Port
	// node carrying virtual port p; hosts[vi] is the host node.
	hostDist := make([][]int32, vg.NumVirtualNodes())
	hosts := make([]graph.NodeID, vg.NumVirtualNodes())

	for ci, nodes := range vg.Comps {
		if !vg.Valid[ci] || vg.VirtOf[ci] < 0 {
			continue
		}
		vi := vg.VirtOf[ci]
		dv := vg.H.Degree(vi)
		if dv > maxNativePorts {
			return nil, nil, 0, fmt.Errorf("virtual degree %d exceeds native port limit %d", dv, maxNativePorts)
		}

		// Resolve each virtual port to its physical Port node, the
		// physical port crossing the port edge, and the neighbor
		// gadget's virtual port on the other side.
		portNode := make([]graph.NodeID, dv)
		crossPort := make([]int32, dv)
		farPort := make([]int32, dv)
		for p := 0; p < dv; p++ {
			h := vg.H.Halves(vi)[p]
			pe, ok := peOf[h.Edge]
			if !ok {
				return nil, nil, 0, fmt.Errorf("virtual edge %d has no physical port edge", h.Edge)
			}
			end := g.Edge(pe).At(h.Side)
			portNode[p] = end.Node
			crossPort[p] = end.Port
			opp := vg.H.OppositeHalf(h)
			farPort[p] = vg.H.HalfPort(opp)
		}

		// Host placement: the gadget node minimizing the maximum distance
		// to its active Port nodes (ties: lowest node index, which is
		// deterministic because Comps lists nodes in BFS order from the
		// lowest index).
		dists := make([]map[graph.NodeID]int32, dv)
		for p := 0; p < dv; p++ {
			dists[p] = scopedDistances(g, scope, portNode[p])
		}
		host := nodes[0]
		bestEcc := int32(-1)
		for _, v := range nodes {
			ecc := int32(0)
			for p := 0; p < dv; p++ {
				if d := dists[p][v]; d > ecc {
					ecc = d
				}
			}
			if bestEcc < 0 || ecc < bestEcc || (ecc == bestEcc && v < host) {
				host, bestEcc = v, ecc
			}
		}
		hosts[vi] = host
		hd := make([]int32, dv)
		for p := 0; p < dv; p++ {
			hd[p] = dists[p][host]
		}
		hostDist[vi] = hd

		// Slot routes. The BFS parent tree from the host carries OUT
		// slots down to the Port nodes and IN slots back up; the Port
		// node rewrites OUT_p across the port edge as the far side's
		// IN slot.
		parent, parentPort, childPort := scopedTree(g, scope, host)
		for _, v := range nodes {
			m := &machines[v]
			m.nslots = int32(2 * dv)
			for s := 0; s < 2*dv; s++ {
				m.route[s] = -1
				m.relabel[s] = uint8(s)
			}
		}
		for p := 0; p < dv; p++ {
			out, in := uint8(2*p), uint8(2*p+1)
			pn := portNode[p]
			machines[pn].route[out] = int8(crossPort[p])
			machines[pn].relabel[out] = uint8(2*farPort[p] + 1)
			for v := pn; v != host; v = parent[v] {
				machines[v].route[in] = int8(parentPort[v])
				if parent[v] != host {
					machines[parent[v]].route[out] = int8(childPort[v])
				} else if pn != host {
					machines[host].route[out] = int8(childPort[v])
				}
			}
		}

		// The host runs the gadget's machine.
		hm := &machines[host]
		hm.host = true
		hm.pm = mk(vi)
		hm.pmInfo = VirtualNodeInfo{
			Node: vi, ID: vg.H.ID(vi), Degree: dv,
			Words: table.Words(), Seed: seed, Table: table,
		}
		hm.recvW = make([]uint64, dv)
		hm.sendW = make([]uint64, dv)
		pms[vi] = hm.pm
	}

	// Lockstep length: a word produced at one boundary must cross its
	// port edge and climb to the far host before the next.
	superLen := int32(1)
	for vi := 0; vi < vg.NumVirtualNodes(); vi++ {
		for p, h := range vg.H.Halves(graph.NodeID(vi)) {
			opp := vg.H.OppositeHalf(h)
			far := vg.H.HalfNode(opp)
			lat := hostDist[vi][p] + hostDist[far][vg.H.HalfPort(opp)] + 1
			if lat > superLen {
				superLen = lat
			}
		}
	}
	for vi, host := range hosts {
		if pms[vi] != nil {
			machines[host].L = superLen
		}
	}
	return machines, pms, superLen, nil
}

// scopedDistances BFS-computes distances from start within the scoped
// subgraph.
func scopedDistances(g *graph.Graph, scope func(graph.EdgeID) bool, start graph.NodeID) map[graph.NodeID]int32 {
	dist := map[graph.NodeID]int32{start: 0}
	queue := []graph.NodeID{start}
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
				queue = append(queue, y)
			}
		}
	}
	return dist
}

// scopedTree BFS-builds the parent tree from root within the scoped
// subgraph: parent[v] is v's tree parent, parentPort[v] the port at v
// toward it, childPort[v] the port at parent[v] back toward v.
func scopedTree(g *graph.Graph, scope func(graph.EdgeID) bool, root graph.NodeID) (
	parent map[graph.NodeID]graph.NodeID, parentPort, childPort map[graph.NodeID]int32) {

	parent = map[graph.NodeID]graph.NodeID{root: root}
	parentPort = map[graph.NodeID]int32{}
	childPort = map[graph.NodeID]int32{}
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for p, h := range g.Halves(x) {
			if !scope(h.Edge) {
				continue
			}
			ed := g.Edge(h.Edge)
			y := ed.Other(h.Side).Node
			if _, ok := parent[y]; ok {
				continue
			}
			parent[y] = x
			parentPort[y] = ed.Other(h.Side).Port
			childPort[y] = int32(p)
			queue = append(queue, y)
		}
	}
	return parent, parentPort, childPort
}
