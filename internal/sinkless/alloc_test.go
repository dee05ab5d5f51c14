package sinkless

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// pinnedSM delegates to the production smTyped machine but never
// reports done: Step skips the delivery phase once every machine
// terminates, so holding termination off keeps compute AND delivery
// inside the measured window. Round-loop allocation behavior is
// unchanged — the production Round (status exchange, repair
// bookkeeping, RNG draws) runs verbatim.
type pinnedSM struct{ smTyped }

func (m *pinnedSM) Round(recv, send []smMsg) bool {
	m.smTyped.Round(recv, send)
	return false
}

// newTypedSession builds a typed sinkless-protocol session on a random
// 3-regular graph, reset (randomized) and stepped into steady state
// (claims resolved, repair traffic flowing, every Step still
// delivering).
func newTypedSession(tb testing.TB, n int, opts engine.Options) *engine.Session[smMsg] {
	tb.Helper()
	g, err := graph.NewRandomRegular(n, 3, 5, false)
	if err != nil {
		tb.Fatal(err)
	}
	machines := make([]pinnedSM, g.NumNodes())
	typed := make([]engine.TypedMachine[smMsg], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewCore[smMsg](opts).NewSession(g, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, true)
	for i := 0; i < 8; i++ {
		sess.Step()
	}
	return sess
}

// TestSinklessTypedSteadyStateAllocs pins the sinkless half of the
// zero-allocation claim: one steady-state round of the typed
// message-passing protocol — engine compute + delivery AND the machine's
// Round, including its repair-phase bookkeeping — allocates nothing, in
// both execution modes. (Init still allocates per-node state; that is
// per-execution setup, not the round loop.)
func TestSinklessTypedSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newTypedSession(t, 512, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state sinkless round allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestSinklessSessionRerunAllocs pins the whole randomized re-run of the
// sinkless-msg protocol: once a session has run, Session.Run under a
// fresh seed — reseeding every node's RNG, re-initializing every
// machine, and running the protocol to termination — allocates nothing,
// in both execution modes.
func TestSinklessSessionRerunAllocs(t *testing.T) {
	g, err := graph.NewRandomRegular(512, 3, 5, false)
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
			machines := make([]smTyped, g.NumNodes())
			typed := make([]engine.TypedMachine[smMsg], g.NumNodes())
			for v := range typed {
				typed[v] = &machines[v]
			}
			sess, err := engine.NewCore[smMsg](mode.opts).NewSession(g, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			seed := int64(1)
			if _, err := sess.Run(seed, true, 4096); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				seed++
				if _, err := sess.Run(seed, true, 4096); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("warmed randomized re-run allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkSinklessTypedSteadyState2048 measures one typed protocol
// round end-to-end (engine + machine) at n=2048; it must report
// 0 allocs/op.
func BenchmarkSinklessTypedSteadyState2048(b *testing.B) {
	sess := newTypedSession(b, 2048, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}
