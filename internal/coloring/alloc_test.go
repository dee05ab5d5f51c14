package coloring

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/graph"
)

// pinnedCV delegates to the production cvTypedMachine but never reports
// done: Step skips the delivery phase once every machine terminates, so
// holding termination off keeps compute AND delivery inside the
// measured window. Round-loop allocation behavior is unchanged — the
// production Round runs verbatim.
type pinnedCV struct{ cvTypedMachine }

func (m *pinnedCV) Round(recv, send []cvMsg) bool {
	m.cvTypedMachine.Round(recv, send)
	return false
}

// newCVSession builds a typed Cole–Vishkin session on a cycle, reset and
// stepped into steady state (past the reduction schedule, machines
// exchanging their final colors, every Step still delivering).
func newCVSession(tb testing.TB, n int, opts engine.Options) *engine.Session[cvMsg] {
	tb.Helper()
	g, err := graph.NewCycle(n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	machines := make([]pinnedCV, g.NumNodes())
	typed := make([]engine.TypedMachine[cvMsg], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	sess, err := engine.NewCore[cvMsg](opts).NewSession(g, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, false)
	for i := 0; i < 8; i++ {
		sess.Step()
	}
	return sess
}

// TestCVTypedSteadyStateAllocs is the allocation-regression pin of this
// PR's headline claim: one steady-state round of the typed Cole–Vishkin
// execution — engine compute + delivery AND the machine's own Round —
// performs zero allocations, in both the inline and the pooled mode.
func TestCVTypedSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newCVSession(t, 512, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state CV round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkCVEngineSteadyState2048 measures one typed Cole–Vishkin round
// end-to-end (engine + machine) on a 2048-cycle; it must report
// 0 allocs/op.
func BenchmarkCVEngineSteadyState2048(b *testing.B) {
	sess := newCVSession(b, 2048, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// BenchmarkCVEngine2048 is the full typed execution — session setup,
// init phase, all rounds — via the solver-facing path on a 2048-cycle.
func BenchmarkCVEngine2048(b *testing.B) {
	g, err := graph.NewCycle(2048, 1)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]cvTypedMachine, g.NumNodes())
	typed := make([]engine.TypedMachine[cvMsg], g.NumNodes())
	for v := range typed {
		typed[v] = &machines[v]
	}
	core := engine.NewCore[cvMsg](engine.Options{})
	sess, err := core.NewSession(g, typed)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(1, false, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
