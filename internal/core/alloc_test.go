package core

import (
	"testing"

	"locallab/internal/engine"
	"locallab/internal/sinkless"
)

// pinnedSim delegates to the production simMachine but never reports
// done, keeping both the compute and the delivery phase inside the
// measured window (Step skips delivery once every machine terminates).
type pinnedSim struct{ simMachine }

func (m *pinnedSim) Round(recv, send []simMsg) bool {
	m.simMachine.Round(recv, send)
	return false
}

// newSimSession builds a simulation-machine session on a balanced Π₂
// instance, reset and stepped into steady state.
func newSimSession(tb testing.TB, opts engine.Options) *engine.Session[simMsg] {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 24, Seed: 5, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewEnginePaddedSolver(sinkless.NewDetSolver(), 3, engine.New(engine.Options{Sequential: true}))
	d, err := s.SolveDetailed(inst.G, inst.In, 5)
	if err != nil {
		tb.Fatal(err)
	}
	scope := GadScope(inst.G, inst.In)
	machines := buildSimMachines(inst.G, scope, d.Virtual, d.InnerCost.Rounds(), d.Dilation)
	pinned := make([]pinnedSim, len(machines))
	typed := make([]engine.TypedMachine[simMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedSim{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewCore[simMsg](opts).NewSession(inst.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestSimMachineSteadyStateAllocs pins the simulation-machine round loop
// to zero allocations in both execution modes, matching the Ψ-machine,
// CV, and sinkless alloc pins.
func TestSimMachineSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newSimSession(t, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state simulation round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkSimMachineSteadyState measures one simulation round
// end-to-end on a balanced Π₂ instance; it must report 0 allocs/op.
func BenchmarkSimMachineSteadyState(b *testing.B) {
	sess := newSimSession(b, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// pinnedRelay delegates to the production relayMachine (including the
// hosted virtual machine at leader nodes) but never reports done, keeping
// compute and delivery inside the measured window.
type pinnedRelay struct{ relayMachine }

func (m *pinnedRelay) Round(recv, send []relayMsg) bool {
	m.relayMachine.Round(recv, send)
	return false
}

// newRelaySession builds a payload-relay session on a balanced Π₂
// instance, reset and stepped into steady state.
func newRelaySession(tb testing.TB, opts engine.Options) *engine.Session[relayMsg] {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 24, Seed: 5, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewEnginePaddedSolver(sinkless.NewDetSolver(), 3, engine.New(engine.Options{Sequential: true}))
	d, err := s.SolveDetailed(inst.G, inst.In, 5)
	if err != nil {
		tb.Fatal(err)
	}
	scope := GadScope(inst.G, inst.In)
	table := NewFactTable(d.Virtual)
	machines, _ := buildRelayMachines(inst.G, scope, d.Virtual, table,
		GatherFactory(sinkless.NewDetSolver()), d.Dilation, nil, 5)
	pinned := make([]pinnedRelay, len(machines))
	typed := make([]engine.TypedMachine[relayMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedRelay{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewCore[relayMsg](opts).NewSession(inst.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestRelayMachineSteadyStateAllocs pins the payload-relay round loop —
// knowledge merging, virtual-machine rounds at the leaders, and the
// double-buffered broadcast — to zero allocations in both execution
// modes.
func TestRelayMachineSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newRelaySession(t, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state relay round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkRelayMachineSteadyState measures one payload-relay round
// end-to-end on a balanced Π₂ instance; it must report 0 allocs/op.
func BenchmarkRelayMachineSteadyState(b *testing.B) {
	sess := newRelaySession(b, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// pinnedNative delegates to the production natMachine (including the
// hosted port machine at gadget hosts) but never reports done, keeping
// slot merging, protocol rounds, and record forwarding inside the
// measured window.
type pinnedNative struct{ natMachine }

func (m *pinnedNative) Round(recv, send []natMsg) bool {
	m.natMachine.Round(recv, send)
	return false
}

// newNativeSession builds a native-relay session on a balanced Π₂
// instance, reset and stepped into steady state.
func newNativeSession(tb testing.TB, opts engine.Options) *engine.Session[natMsg] {
	tb.Helper()
	inst, err := BuildInstance(2, InstanceOptions{BaseNodes: 24, Seed: 5, Balanced: true})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewEnginePaddedSolver(sinkless.NewMessageSolver(), 3, engine.New(engine.Options{Sequential: true}))
	d, err := s.SolveDetailed(inst.G, inst.In, 5)
	if err != nil {
		tb.Fatal(err)
	}
	scope := GadScope(inst.G, inst.In)
	table := NewFactTable(d.Virtual)
	mk := nativeFactoryFor(sinkless.NewMessageSolver(), d.Virtual)
	if mk == nil {
		tb.Fatal("no native factory for the message solver")
	}
	machines, _, _, err := buildNativeMachines(inst.G, scope, d.Virtual, table, mk, 5)
	if err != nil {
		tb.Fatal(err)
	}
	pinned := make([]pinnedNative, len(machines))
	typed := make([]engine.TypedMachine[natMsg], len(machines))
	for v := range machines {
		pinned[v] = pinnedNative{machines[v]}
		typed[v] = &pinned[v]
	}
	sess, err := engine.NewCore[natMsg](opts).NewSession(inst.G, typed)
	if err != nil {
		tb.Fatal(err)
	}
	sess.Reset(1, false)
	for i := 0; i < 4; i++ {
		sess.Step()
	}
	return sess
}

// TestNativeMachineSteadyStateAllocs pins the native-relay round loop —
// record merging, the hosted protocol rounds, and change-only slot
// forwarding — to zero allocations in both execution modes.
func TestNativeMachineSteadyStateAllocs(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"inline", engine.Options{Sequential: true}},
		{"pooled", engine.Options{Workers: 4, Shards: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sess := newNativeSession(t, mode.opts)
			defer sess.Close()
			if allocs := testing.AllocsPerRun(64, func() { sess.Step() }); allocs != 0 {
				t.Fatalf("steady-state native round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkNativeMachineSteadyState measures one native-relay round
// end-to-end on a balanced Π₂ instance; it must report 0 allocs/op.
func BenchmarkNativeMachineSteadyState(b *testing.B) {
	sess := newNativeSession(b, engine.Options{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Step()
	}
}

// TestInputDecodeAllocs pins the composite-input decode to a constant
// number of allocations, the result labelings and the scope, on
// level-2 padded instances at two base sizes: splitting a label costs
// nothing per label.
func TestInputDecodeAllocs(t *testing.T) {
	decoders := []struct {
		name   string
		decode func(*Instance)
	}{
		{"decodeInputs", func(inst *Instance) { _, _, _, _ = decodeInputs(inst.G, inst.In) }},
		{"GadInputs", func(inst *Instance) { _, _ = GadInputs(inst.G, inst.In) }},
		{"PiInputs", func(inst *Instance) { _, _ = PiInputs(inst.G, inst.In) }},
		{"GadScope", func(inst *Instance) { _ = GadScope(inst.G, inst.In) }},
	}
	var insts []*Instance
	for _, base := range []int{8, 24} {
		inst, err := BuildInstance(2, InstanceOptions{BaseNodes: base, Seed: 5, Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	for _, d := range decoders {
		t.Run(d.name, func(t *testing.T) {
			var counts []float64
			for _, inst := range insts {
				counts = append(counts, testing.AllocsPerRun(8, func() { d.decode(inst) }))
			}
			if counts[0] != counts[1] {
				t.Fatalf("%s allocates %v times at N=%d but %v at N=%d, want a per-call constant",
					d.name, counts[0], insts[0].G.NumNodes(), counts[1], insts[1].G.NumNodes())
			}
			t.Logf("%s: %v allocs per call", d.name, counts[0])
		})
	}
}
