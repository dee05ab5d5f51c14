// Package engine is the execution core of the LOCAL-model simulator: a
// sharded worker-pool runtime for synchronous message-passing algorithms.
//
// The model semantics are exactly those of Section 2 of the paper:
// computation proceeds in rounds; in each round every node consumes the
// messages that arrived on its ports, emits one message per port, and
// the messages cross their edges before the next round starts. The
// engine changes only the mechanics, not the semantics:
//
//   - Nodes are partitioned into contiguous shards. A fixed pool of worker
//     goroutines (Options.Workers, default GOMAXPROCS) executes each round
//     shard by shard instead of spawning one goroutine per node per round.
//   - Messages are concrete values of a type M (TypedMachine[M]) living
//     in a typed plane: two flat []M buffers in the port-slot space of
//     the graph's CSR topology (PortOffsets). The compute phase reads
//     one and writes the other; the delivery phase gathers sends back
//     through a precomputed route table (RouteTable), receiver-side, so
//     writes never contend.
//   - All buffers are allocated once per Session and reused every round,
//     so the steady-state round loop performs no allocations.
//
// Because every phase is separated by a barrier and every slot of every
// buffer is owned by exactly one node, the execution is deterministic: the
// outputs are byte-identical for every Workers/Shards setting, including
// the inline mode (Options.Sequential). RunReference is the independent
// oracle the Core is differential-tested against: a goroutine-free
// transcription of the model with per-node inboxes that delivers through
// the graph's half-edge accessors instead of the route table.
//
// Invariants (pinned by the differential, determinism, and AllocsPerRun
// tests):
//
//   - Byte-identity: outputs, Stats.Rounds, and Stats.Deliveries are
//     identical for every Workers/Shards setting, for the pooled and
//     inline modes, and for RunReference.
//   - Seed-pinned randomness: the node's RNG draws the stream of
//     rand.NewSource(NodeSeed(master seed, node identifier)), never
//     anything derived from worker or shard state. Core serves it from a
//     per-session slab of NodeSources reseeded on every Reset;
//     RunReference uses the stdlib source itself.
//   - 0 allocs/op steady state: after Session setup, Step allocates
//     nothing (and well-behaved typed machines keep the machine side at
//     zero too).
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"locallab/internal/graph"
)

// NodeInfo is the initial knowledge of a node per the model: the global
// bounds n and Δ, its own identifier and degree, and a private random
// source (nil for deterministic machines).
type NodeInfo struct {
	N      int
	Delta  int
	ID     int64
	Degree int
	RNG    *rand.Rand
}

// ErrRoundLimit is returned when machines do not all terminate within
// the round budget.
var ErrRoundLimit = errors.New("round limit exceeded")

// NodeSeed returns the seed of the private random stream of the node
// with the given identifier under the given master seed. SplitMix64
// scrambling keeps per-node streams decorrelated.
func NodeSeed(masterSeed, nodeIdentifier int64) int64 {
	z := uint64(masterSeed) + 0x9e3779b97f4a7c15*uint64(nodeIdentifier+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// DeriveRNG returns the private random source of the node with the given
// identifier under the given master seed: the stream of
// rand.New(rand.NewSource(NodeSeed(masterSeed, nodeIdentifier))), drawn
// from a NodeSource so that seeding costs O(1).
func DeriveRNG(masterSeed, nodeIdentifier int64) *rand.Rand {
	return rand.New(NewNodeSource(NodeSeed(masterSeed, nodeIdentifier)))
}

// Options configures an Engine.
type Options struct {
	// Workers is the number of pool goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// Shards is the number of contiguous node ranges the graph is split
	// into; <= 0 picks 4×Workers (work-stealing slack), capped at n.
	Shards int
	// Sequential selects the inline execution mode: no worker pool, one
	// shard, every phase run on the calling goroutine. The semantics and
	// outputs are identical to the pooled mode.
	Sequential bool
	// Hint, when non-nil, carries the cost twin's prediction for the
	// execution about to run. It is purely a pre-sizing aid: sessions
	// created under a hint perform their warm-up allocations (worker
	// pool startup, job channel) eagerly in NewSession instead of lazily
	// on the first dispatch, so the first Step is as allocation-free as
	// the steady state. A wrong hint costs nothing but mis-sized
	// warm-up; it can never change outputs (pinned by the byte-identity
	// grids).
	Hint *SizeHint
}

// SizeHint is a predicted execution profile (typically from
// internal/twin) used to pre-size per-session state.
type SizeHint struct {
	// Rounds is the predicted number of rounds.
	Rounds int
	// Deliveries is the predicted total message deliveries.
	Deliveries int64
}

// Engine carries one execution configuration between layers: solvers
// take an optional *Engine and run their typed machines on
// NewCore[M](e.Options()). A nil *Engine stands for the package-level
// defaults.
type Engine struct {
	opts Options
}

// New returns an Engine with the given options.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Options returns the options the engine was created with, or the
// package-level defaults for a nil engine.
func (e *Engine) Options() Options {
	if e == nil {
		return DefaultOptions()
	}
	return e.opts
}

// Package-level defaults, settable from command-line flags. Stored as
// atomics so flag threading never races with concurrent runs.
var (
	defaultWorkers atomic.Int32
	defaultShards  atomic.Int32
)

// SetDefaultOptions installs the worker/shard counts a nil *Engine
// stands for (and therefore the geometry of every solver run without an
// explicit engine). Non-positive values mean "auto".
func SetDefaultOptions(o Options) {
	defaultWorkers.Store(int32(o.Workers))
	defaultShards.Store(int32(o.Shards))
}

// DefaultOptions returns the current package-level defaults.
func DefaultOptions() Options {
	return Options{
		Workers: int(defaultWorkers.Load()),
		Shards:  int(defaultShards.Load()),
	}
}

// Stats profiles one execution: the executed rounds, the number of
// messages that crossed edges over all delivery phases (every port slot
// of every delivery phase counts), and the effective pool geometry.
// Deliveries is a property of the algorithm's execution, not of the
// scheduling — it is byte-identical across every Workers/Shards setting
// and equals RunReference's count, so it is safe to record in
// deterministic reports.
type Stats struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Deliveries counts messages delivered across all rounds.
	Deliveries int64
	// Workers and Shards are the effective pool geometry (1/1 for the
	// inline mode and for RunReference).
	Workers int
	Shards  int
}

// RunReference executes machines with the reference implementation: a
// direct, goroutine-free transcription of the model semantics with a
// per-node inbox and outbox, delivering each message through the graph's
// half-edge accessors (HalfAt, OppositeHalf) rather than the CSR route
// table the Core gathers through, and seeds each node's RNG with the
// stdlib source instead of Core's NodeSource slab. It shares no execution
// or RNG code with Core, which makes it the oracle the Core's every geometry is
// differential-tested against. Like the Core it counts every delivered
// port slot and skips delivery after the final round.
func RunReference[M any](g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	n := g.NumNodes()
	if len(machines) != n {
		return Stats{}, fmt.Errorf("engine: %d machines for %d nodes", len(machines), n)
	}
	delta := g.MaxDegree()
	stats := Stats{Workers: 1, Shards: 1}
	inbox := make([][]M, n)
	outbox := make([][]M, n)
	for v := 0; v < n; v++ {
		id := g.ID(graph.NodeID(v))
		deg := g.Degree(graph.NodeID(v))
		var rng *rand.Rand
		if randomized {
			rng = rand.New(rand.NewSource(NodeSeed(masterSeed, id)))
		}
		machines[v].Init(NodeInfo{N: n, Delta: delta, ID: id, Degree: deg, RNG: rng})
		inbox[v] = make([]M, deg)
		outbox[v] = make([]M, deg)
	}
	for round := 1; round <= maxRounds; round++ {
		allDone := true
		for v := 0; v < n; v++ {
			if !machines[v].Round(inbox[v], outbox[v]) {
				allDone = false
			}
		}
		if allDone {
			stats.Rounds = round
			return stats, nil
		}
		// Deliver: the message sent on a half-edge arrives at the
		// opposite half's port. Every port is the opposite of exactly
		// one port, so every inbox slot is overwritten.
		for v := 0; v < n; v++ {
			for p, msg := range outbox[v] {
				opp := g.OppositeHalf(g.HalfAt(graph.NodeID(v), int32(p)))
				inbox[g.HalfNode(opp)][g.HalfPort(opp)] = msg
				stats.Deliveries++
			}
		}
	}
	stats.Rounds = maxRounds
	return stats, ErrRoundLimit
}

// Execution phases of the round loop. phaseWarmup is a no-op barrier
// round-trip: hinted sessions dispatch it once from NewSession so every
// worker and the coordinator park at least once there, allocating the
// runtime's lazy park state (sudogs, semaphores) before the first real
// round.
const (
	phaseInit = iota
	phaseCompute
	phaseDeliver
	phaseWarmup
)

// paddedBool keeps per-shard flags on separate cache lines so concurrent
// shard completions do not false-share.
type paddedBool struct {
	v bool
	_ [63]byte
}

// paddedCount keeps per-shard counters on separate cache lines for the
// same reason.
type paddedCount struct {
	v int64
	_ [56]byte
}
