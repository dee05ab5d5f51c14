package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// gossipMachine runs a fixed number of rounds, each round folding the
// received values into a running digest and sending a value derived from
// it on every port. Its final digest depends on every message of every
// round, so any delivery or ordering bug in the runtime changes it. The
// first round has nothing to digest: recv holds zero values there.
type gossipMachine struct {
	id     int64
	degree int
	digest uint64
	rounds int
	target int
}

func (m *gossipMachine) Init(info engine.NodeInfo) {
	m.id = info.ID
	m.degree = info.Degree
	m.digest = uint64(info.ID) * 0x9e3779b97f4a7c15
	m.rounds = 0
}

func (m *gossipMachine) Round(recv, send []int64) bool {
	if m.rounds > 0 {
		for p, r := range recv {
			m.digest = m.digest*31 + uint64(r) + uint64(p)
		}
	}
	m.rounds++
	for p := range send {
		send[p] = int64(m.digest>>1) + int64(p)
	}
	return m.rounds >= m.target
}

// rngMachine exercises the randomized initialization path: every round it
// sends values drawn from the node's private RNG and digests what it
// receives. Core seeds that RNG from its NodeSource slab and
// RunReference from the stdlib source, so equal digests pin the two
// streams to each other.
type rngMachine struct {
	gossipMachine
	info  engine.NodeInfo
	mixed bool // draw through Intn/Float64/Uint64 instead of Int63 only
}

func (m *rngMachine) Init(info engine.NodeInfo) {
	m.gossipMachine.Init(info)
	m.info = info
}

func (m *rngMachine) Round(recv, send []int64) bool {
	if m.rounds > 0 {
		for _, r := range recv {
			m.digest = m.digest*33 + uint64(r)
		}
	}
	m.rounds++
	for p := range send {
		switch {
		case !m.mixed:
			send[p] = m.info.RNG.Int63()
		case (m.rounds+p)%3 == 0:
			send[p] = int64(m.info.RNG.Intn(1 + p + m.rounds))
		case (m.rounds+p)%3 == 1:
			send[p] = int64(m.info.RNG.Float64() * (1 << 53))
		default:
			send[p] = int64(m.info.RNG.Uint64() >> 1)
		}
	}
	return m.rounds >= m.target
}

func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	cyc, err := graph.NewCycle(97, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["cycle97"] = cyc
	reg, err := graph.NewRandomRegular(200, 3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	out["regular200"] = reg
	// Loops and parallel edges are part of the model; route through them.
	b := graph.NewBuilder(4, 6)
	for i := int64(1); i <= 4; i++ {
		b.Node(i * 10)
	}
	b.Link(0, 0) // self-loop
	b.Link(0, 1)
	b.Link(1, 2)
	b.Link(1, 2) // parallel edge
	b.Link(2, 3)
	out["multigraph"] = mustBuild(b)
	return out
}

// runFunc is the shape shared by RunReference and Core.RunStats.
type runFunc func(*graph.Graph, []engine.TypedMachine[int64], int64, bool, int) (engine.Stats, error)

// digests runs fresh machines of the given flavor through run and returns
// the per-node digests plus the execution profile.
func digests(t testing.TB, g *graph.Graph, flavor string, run runFunc) ([]uint64, engine.Stats) {
	t.Helper()
	machines := make([]engine.TypedMachine[int64], g.NumNodes())
	gossip := make([]*gossipMachine, g.NumNodes())
	for v := range machines {
		switch flavor {
		case "gossip":
			m := &gossipMachine{target: 20}
			machines[v], gossip[v] = m, m
		case "rng":
			m := &rngMachine{gossipMachine: gossipMachine{target: 20}}
			machines[v], gossip[v] = m, &m.gossipMachine
		case "rng-spill":
			// 150 rounds draw at least 300 values per node, past the
			// 273 NodeSource serves before materializing its register.
			m := &rngMachine{gossipMachine: gossipMachine{target: 150}, mixed: true}
			machines[v], gossip[v] = m, &m.gossipMachine
		default:
			t.Fatalf("unknown flavor %q", flavor)
		}
	}
	stats, err := run(g, machines, 42, flavor != "gossip", 200)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, g.NumNodes())
	for v := range out {
		out[v] = gossip[v].digest
	}
	return out, stats
}

// shardedConfigs is the worker/shard grid the Core is differential-tested
// over, plus the inline mode and the package defaults.
var shardedConfigs = []engine.Options{
	{Sequential: true},
	{Workers: 1, Shards: 1},
	{Workers: 1, Shards: 5},
	{Workers: 2, Shards: 2},
	{Workers: 3, Shards: 7},
	{Workers: 8, Shards: 32},
	{Workers: 16, Shards: 1000}, // more shards than nodes
	{},                          // defaults
}

// testFlavors are the machine flavors of the differential grids; the
// rng flavors run randomized.
var testFlavors = []string{"gossip", "rng", "rng-spill"}

// TestShardedMatchesSequential differential-tests the Core — pooled
// across a worker/shard grid and in the inline mode — against the
// independent RunReference over graph shapes and machine flavors.
// Digests and rounds must be byte-identical.
func TestShardedMatchesSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, flavor := range testFlavors {
			want, wantStats := digests(t, g, flavor, engine.RunReference[int64])
			for _, opts := range shardedConfigs {
				got, stats := digests(t, g, flavor, engine.NewCore[int64](opts).RunStats)
				if stats.Rounds != wantStats.Rounds {
					t.Errorf("%s/%s %+v: rounds = %d, want %d", name, flavor, opts, stats.Rounds, wantStats.Rounds)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s/%s %+v: node %d digest %x, want %x", name, flavor, opts, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestRunStatsMatchesSequential: the execution profile is deterministic —
// rounds and deliveries are identical across every pool geometry and
// equal the reference's count of every port slot of every delivery
// phase; the inline mode and the reference report a 1/1 geometry.
func TestRunStatsMatchesSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, flavor := range testFlavors {
			_, want := digests(t, g, flavor, engine.RunReference[int64])
			if want.Workers != 1 || want.Shards != 1 {
				t.Errorf("%s/%s: reference geometry = %d/%d, want 1/1", name, flavor, want.Workers, want.Shards)
			}
			if want.Deliveries != int64(want.Rounds-1)*int64(g.NumPorts()) {
				t.Errorf("%s/%s: reference deliveries = %d, want every port slot of %d delivery phases",
					name, flavor, want.Deliveries, want.Rounds-1)
			}
			for _, opts := range shardedConfigs {
				_, got := digests(t, g, flavor, engine.NewCore[int64](opts).RunStats)
				if got.Rounds != want.Rounds || got.Deliveries != want.Deliveries {
					t.Errorf("%s/%s %+v: stats rounds=%d deliveries=%d, want rounds=%d deliveries=%d",
						name, flavor, opts, got.Rounds, got.Deliveries, want.Rounds, want.Deliveries)
				}
				if opts.Sequential && (got.Workers != 1 || got.Shards != 1) {
					t.Errorf("%s/%s: inline geometry = %d/%d, want 1/1", name, flavor, got.Workers, got.Shards)
				}
			}
		}
	}
}

// TestRoundLimit: the reference honors the round budget and reports the
// partial execution.
func TestRoundLimit(t *testing.T) {
	g, err := graph.NewCycle(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v] = &gossipMachine{target: 1 << 30} // never done
	}
	stats, err := engine.RunReference(g, machines, 0, false, 9)
	if !errors.Is(err, engine.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if stats.Rounds != 9 {
		t.Fatalf("rounds = %d, want 9", stats.Rounds)
	}
}

func TestMachineCountMismatch(t *testing.T) {
	g, err := graph.NewCycle(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunReference(g, make([]engine.TypedMachine[int64], 3), 0, false, 10); err == nil {
		t.Fatal("expected machine/node count mismatch error")
	}
}

func TestDefaultOptionsRoundTrip(t *testing.T) {
	defer engine.SetDefaultOptions(engine.Options{})
	engine.SetDefaultOptions(engine.Options{Workers: 3, Shards: 9})
	got := engine.DefaultOptions()
	if got.Workers != 3 || got.Shards != 9 {
		t.Fatalf("defaults = %+v, want Workers:3 Shards:9", got)
	}
}

func TestDeriveRNGDeterminism(t *testing.T) {
	a := engine.DeriveRNG(42, 7).Int63()
	b := engine.DeriveRNG(42, 7).Int63()
	if a != b {
		t.Error("same seed and id should give identical streams")
	}
	c := engine.DeriveRNG(42, 8).Int63()
	if a == c {
		t.Error("different node ids should give different streams")
	}
	d := engine.DeriveRNG(43, 7).Int63()
	if a == d {
		t.Error("different master seeds should give different streams")
	}
}

func ExampleCore_Run() {
	g, _ := graph.NewCycle(8, 1)
	machines := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range machines {
		machines[v] = &gossipMachine{target: 3}
	}
	rounds, _ := engine.NewCore[int64](engine.Options{Workers: 2, Shards: 4}).Run(g, machines, 0, false, 10)
	fmt.Println(rounds)
	// Output: 3
}

// mustBuild finalizes a known-good test builder, panicking on the error
// that the sticky-error API would otherwise surface to callers.
func mustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
