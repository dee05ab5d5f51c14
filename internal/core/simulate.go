package core

import (
	"fmt"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// This file is the *mask plane*: Lemma 4's virtual-round schedule
// realized as physical message passing with 64-bit reachability
// signatures. It is the fixed-schedule baseline that the payload relay
// plane (relay.go) extends with the inner solver's real knowledge
// payloads; the engine-backed solver executes the relay, while the mask
// plane remains the information-flow yardstick (the sandwich tests
// below) and the lightweight side of the E-E2 delivery-count
// comparison. The inner algorithm's T-round
// execution on the virtual graph H is charged (T+1)·(d+1) physical rounds
// by the analytical accounting: each virtual round crosses one gadget of
// eccentricity ≤ d plus the port edge. The simulation machine executes
// exactly that schedule for real: T+1 super-rounds of d+1 physical rounds
// each, in which every node floods its gadget's knowledge mask over
// gadget edges every round, and port nodes additionally push it across
// their virtual (port) edge on the first physical round of every
// super-round — one virtual hop per super-round, dilated through the
// gadget interior, exactly the information flow the Lemma-4 analysis
// charges for.
//
// The knowledge mask is a 64-bit virtual-node signature set (bit
// ID(H-node) mod 64), OR-combined on every delivery: idempotent,
// commutative, and associative, so the flood is order-independent and the
// final masks are deterministic for every worker/shard geometry. The
// masks are checkable against the virtual topology — after the run, every
// node of a valid gadget holds at least its virtual ball of radius
// ⌊(T+1)/2⌋ and at most the ball of radius T+1 (information cannot cross
// more than one port edge per super-round) — which is what the simulation
// tests pin.

// simMsg is the constant-size payload of the simulation flood.
type simMsg struct {
	Mask uint64
}

// simConfig is the per-node static context: port roles and the gadget's
// virtual signature bit.
type simConfig struct {
	// gad lists in-scope (gadget-edge) ports: flooded every round.
	gad []int32
	// virt lists ports on virtual (port) edges: flooded on the first
	// physical round of each super-round only.
	virt []int32
	// initMask is the node's own gadget signature (0 outside valid
	// gadgets).
	initMask uint64
	// superLen is d+1; target is (T+1)·(d+1), the total round budget.
	superLen int32
	target   int32
}

// simMachine floods virtual-node signatures under the dilated schedule.
type simMachine struct {
	cfg   simConfig
	round int32
	mask  uint64
}

var _ engine.TypedMachine[simMsg] = (*simMachine)(nil)

func (m *simMachine) Init(info engine.NodeInfo) {
	m.round = 0
	m.mask = m.cfg.initMask
}

func (m *simMachine) Round(recv, send []simMsg) bool {
	m.round++
	if m.round > 1 {
		for _, p := range m.cfg.gad {
			m.mask |= recv[p].Mask
		}
		for _, p := range m.cfg.virt {
			m.mask |= recv[p].Mask
		}
	}
	// The send plane is reused across rounds: write every slot.
	for p := range send {
		send[p] = simMsg{}
	}
	for _, p := range m.cfg.gad {
		send[p].Mask = m.mask
	}
	if (m.round-1)%m.cfg.superLen == 0 {
		// First physical round of a super-round: the one virtual hop.
		for _, p := range m.cfg.virt {
			send[p].Mask = m.mask
		}
	}
	return m.round >= m.cfg.target
}

// SimResult is the outcome of an engine-backed simulation run.
type SimResult struct {
	// Masks holds each physical node's final virtual-signature mask.
	Masks []uint64
	// Stats is the engine profile; Stats.Rounds equals the analytical
	// (T+1)·(d+1) simulation charge.
	Stats engine.Stats
}

// VirtSignature returns the 64-bit signature bit of virtual node vi.
func VirtSignature(vg *VirtualGraph, vi graph.NodeID) uint64 {
	return 1 << (uint64(vg.H.ID(vi)) % 64)
}

// RunSimulation executes the dilated virtual-round schedule on the
// engine: innerRounds+1 super-rounds of dilation+1 physical rounds each.
// It requires at least one valid gadget (vg.NumVirtualNodes() > 0).
func RunSimulation(eng *engine.Engine, g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, innerRounds, dilation int) (*SimResult, error) {

	if vg.NumVirtualNodes() == 0 {
		return nil, fmt.Errorf("run simulation: no valid gadgets")
	}
	machines := buildSimMachines(g, scope, vg, innerRounds, dilation)
	target := machines[0].cfg.target
	n := g.NumNodes()
	typed := make([]engine.TypedMachine[simMsg], n)
	for v := range machines {
		typed[v] = &machines[v]
	}
	stats, err := engine.NewCore[simMsg](eng.Options()).RunStats(g, typed, 0, false, int(target)+1)
	if err != nil {
		return nil, fmt.Errorf("run simulation: %w", err)
	}
	masks := make([]uint64, n)
	for v := range machines {
		masks[v] = machines[v].mask
	}
	return &SimResult{Masks: masks, Stats: stats}, nil
}

// buildSimMachines derives the per-node simulation configs.
func buildSimMachines(g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, innerRounds, dilation int) []simMachine {

	superLen := superRoundLen(dilation)
	target := int32(innerRounds+1) * superLen
	n := g.NumNodes()
	machines := make([]simMachine, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		cfg := simConfig{superLen: superLen, target: target}
		ci := vg.CompOf[v]
		if ci >= 0 && vg.Valid[ci] && vg.VirtOf[ci] >= 0 {
			cfg.initMask = VirtSignature(vg, vg.VirtOf[ci])
		}
		cfg.gad, cfg.virt = classifyPorts(g, scope, vg, v)
		machines[v] = simMachine{cfg: cfg}
	}
	return machines
}

// classifyPorts splits node v's ports into gadget-interior ports (scoped
// edges, flooded every round) and virtual ports (port edges carrying a
// virtual edge, crossed once per super-round). The mask plane and the
// payload relay plane route through exactly this classification, so it
// lives in one place — a one-sided change would break the mask/relay
// sandwich invariant the tests rely on.
func classifyPorts(g *graph.Graph, scope func(graph.EdgeID) bool,
	vg *VirtualGraph, v graph.NodeID) (gad, virt []int32) {

	for p, h := range g.Halves(v) {
		if scope(h.Edge) {
			gad = append(gad, int32(p))
		} else if _, ok := vg.VEdgeOf[h.Edge]; ok {
			virt = append(virt, int32(p))
		}
	}
	return gad, virt
}

// superRoundLen is the dilated super-round length d+1, floored at one
// physical round.
func superRoundLen(dilation int) int32 {
	if dilation < 0 {
		return 1
	}
	return int32(dilation + 1)
}
