package engine_test

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// boxedGossip is gossipMachine over boxed messages: the same digest
// recurrence, with every value carried as an interface. The first round
// is skipped by the round count, so the nil zero values never reach the
// type assertion.
type boxedGossip struct {
	gossipMachine
}

func (m *boxedGossip) Round(recv, send []any) bool {
	if m.rounds > 0 {
		for p, r := range recv {
			m.digest = m.digest*31 + uint64(r.(int64)) + uint64(p)
		}
	}
	m.rounds++
	for p := range send {
		send[p] = int64(m.digest>>1) + int64(p)
	}
	return m.rounds >= m.target
}

// TestTypedCoreMatchesBoxedOracle differential-tests the typed Core —
// pooled across the worker/shard grid and in the inline mode — against
// RunReference instantiated on boxed messages (M = any) running the
// equivalent boxed machine. The two share neither execution code nor a
// message representation, so digests, rounds, and deliveries must agree
// for reasons other than a common implementation.
func TestTypedCoreMatchesBoxedOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		machines := make([]boxedGossip, g.NumNodes())
		boxed := make([]engine.TypedMachine[any], g.NumNodes())
		for v := range boxed {
			machines[v].target = 20
			boxed[v] = &machines[v]
		}
		wantStats, err := engine.RunReference(g, boxed, 42, false, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range shardedConfigs {
			got, stats := digests(t, g, "gossip", engine.NewCore[int64](opts).RunStats)
			if stats.Rounds != wantStats.Rounds || stats.Deliveries != wantStats.Deliveries {
				t.Errorf("%s %+v: stats rounds=%d deliveries=%d, want rounds=%d deliveries=%d",
					name, opts, stats.Rounds, stats.Deliveries, wantStats.Rounds, wantStats.Deliveries)
			}
			for v := range machines {
				if got[v] != machines[v].digest {
					t.Fatalf("%s %+v: node %d digest %x, want %x", name, opts, v, got[v], machines[v].digest)
				}
			}
		}
	}
}

// TestSessionReuseAndStepping: a Session reused across Runs reproduces
// identical executions, and the explicit Reset/Step loop is equivalent
// to Run.
func TestSessionReuseAndStepping(t *testing.T) {
	g, err := graph.NewRandomRegular(120, 3, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 12
		typed[v] = &machines[v]
	}
	sess, err := engine.NewCore[int64](engine.Options{Workers: 3, Shards: 8}).NewSession(g, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	first, err := sess.Run(7, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	digest0 := machines[0].digest

	// Rerun on the same session: buffers are reused, results identical.
	again, err := sess.Run(7, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("session rerun stats %+v, want %+v", again, first)
	}
	if machines[0].digest != digest0 {
		t.Fatal("session rerun changed machine digest")
	}

	// Manual stepping reproduces Run exactly.
	sess.Reset(7, false)
	steps := 0
	for {
		steps++
		if sess.Step() {
			break
		}
		if steps > 100 {
			t.Fatal("stepping did not terminate")
		}
	}
	if steps != first.Rounds || sess.Rounds() != first.Rounds {
		t.Fatalf("stepped rounds = %d (session says %d), want %d", steps, sess.Rounds(), first.Rounds)
	}
	if sess.Deliveries() != first.Deliveries {
		t.Fatalf("stepped deliveries = %d, want %d", sess.Deliveries(), first.Deliveries)
	}
	if machines[0].digest != digest0 {
		t.Fatal("stepped execution changed machine digest")
	}
}

// TestRandomizedSessionReseeds: a Session reseeds its per-node RNG slab
// on every randomized Reset, so reruns under alternating seeds — with
// every node drawing past its source's register spill — each reproduce
// RunReference's stdlib-seeded execution for that seed.
func TestRandomizedSessionReseeds(t *testing.T) {
	g, err := graph.NewRandomRegular(60, 3, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	newMachines := func() ([]rngMachine, []engine.TypedMachine[int64]) {
		machines := make([]rngMachine, g.NumNodes())
		typed := make([]engine.TypedMachine[int64], g.NumNodes())
		for v := range typed {
			machines[v] = rngMachine{gossipMachine: gossipMachine{target: 120}, mixed: true}
			typed[v] = &machines[v]
		}
		return machines, typed
	}
	machines, typed := newMachines()
	sess, err := engine.NewCore[int64](engine.Options{Workers: 2, Shards: 5}).NewSession(g, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, seed := range []int64{3, 4, 3, -9} {
		if _, err := sess.Run(seed, true, 200); err != nil {
			t.Fatal(err)
		}
		ref, refTyped := newMachines()
		if _, err := engine.RunReference(g, refTyped, seed, true, 200); err != nil {
			t.Fatal(err)
		}
		for v := range ref {
			if machines[v].digest != ref[v].digest {
				t.Fatalf("seed %d: node %d digest %x, want %x", seed, v, machines[v].digest, ref[v].digest)
			}
		}
	}
}

// TestTypedCoreMachineCountMismatch: the Core validates the machine set
// against the graph like RunReference does.
func TestTypedCoreMachineCountMismatch(t *testing.T) {
	g, err := graph.NewCycle(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewCore[int64](engine.Options{}).Run(g, make([]engine.TypedMachine[int64], 3), 0, false, 10); err == nil {
		t.Fatal("expected machine/node count mismatch error")
	}
}

// TestTypedCoreRoundLimit: the typed core honors the round budget.
func TestTypedCoreRoundLimit(t *testing.T) {
	g, err := graph.NewCycle(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 1 << 30 // never done
		typed[v] = &machines[v]
	}
	rounds, err := engine.NewCore[int64](engine.Options{Workers: 4}).Run(g, typed, 0, false, 9)
	if err != engine.ErrRoundLimit {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if rounds != 9 {
		t.Fatalf("rounds = %d, want 9", rounds)
	}
}

// TestTypedCoreSteadyStateAllocs pins the zero-allocation property of
// the typed round loop itself — engine side only, with a trivially
// allocation-free machine — in both execution modes. The solver-level
// pins (engine + machine combined) live with the CV and sinkless
// machines.
func TestTypedCoreSteadyStateAllocs(t *testing.T) {
	g, err := graph.NewRandomRegular(256, 3, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			machines := make([]gossipMachine, g.NumNodes())
			typed := make([]engine.TypedMachine[int64], g.NumNodes())
			for v := range typed {
				machines[v].target = 1 << 30
				typed[v] = &machines[v]
			}
			sess, err := engine.NewCore[int64](mode.opts).NewSession(g, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.Reset(1, false)
			for i := 0; i < 4; i++ {
				sess.Step() // reach steady state (pool spawned, caches warm)
			}
			if allocs := testing.AllocsPerRun(32, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state Step allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// BenchmarkCoreTyped2048 measures whole executions — Reset plus every
// round — of the gossip workload on a reused pooled session.
func BenchmarkCoreTyped2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 16
		typed[v] = &machines[v]
	}
	core := engine.NewCore[int64](engine.Options{})
	sess, err := core.NewSession(g, typed)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(int64(i), false, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreTypedSteadyState2048 measures the raw round loop —
// compute + deliver, no setup — and must report 0 allocs/op.
func BenchmarkCoreTypedSteadyState2048(b *testing.B) {
	g, err := graph.NewRandomRegular(2048, 3, 5, false)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]gossipMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[int64], g.NumNodes())
	for v := range typed {
		machines[v].target = 1 << 30
		typed[v] = &machines[v]
	}
	sess, err := engine.NewCore[int64](engine.Options{}).NewSession(g, typed)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.Reset(1, false)
	sess.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}
