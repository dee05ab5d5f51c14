package solver

import (
	"testing"

	"locallab/internal/coloring"
	"locallab/internal/engine"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// TestOracleEntriesMatchNativeChecksums: the sequential-oracle registry
// entries and the native-machine engine entries must fingerprint the
// same labelings cell for cell — the registry-level face of the
// native-inner differential tests.
func TestOracleEntriesMatchNativeChecksums(t *testing.T) {
	for _, pair := range [][2]string{
		{"pi2-det", "pi2-det-oracle"},
		{"pi2-rand", "pi2-rand-oracle"},
	} {
		native, ok := ByName(pair[0])
		if !ok {
			t.Fatalf("entry %q missing", pair[0])
		}
		oracle, ok := ByName(pair[1])
		if !ok {
			t.Fatalf("entry %q missing", pair[1])
		}
		req := Request{Family: PaddedFamily, N: 12, Seed: 3}
		no, err := native.Run(Request{Family: req.Family, N: req.N, Seed: req.Seed,
			Engine: engine.New(engine.Options{Workers: 2, Shards: 8})})
		if err != nil {
			t.Fatalf("%s: %v", pair[0], err)
		}
		oo, err := oracle.Run(req)
		if err != nil {
			t.Fatalf("%s: %v", pair[1], err)
		}
		if no.Checksum != oo.Checksum {
			t.Fatalf("%s checksum %016x differs from %s checksum %016x",
				pair[0], no.Checksum, pair[1], oo.Checksum)
		}
		if no.Stats.Deliveries <= 0 {
			t.Fatalf("%s: native entry reported no deliveries", pair[0])
		}
		if oo.Stats.Deliveries != 0 {
			t.Fatalf("%s: oracle entry reported engine deliveries", pair[1])
		}
	}
}

func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Description == "" || e.Prepare == nil || e.DefaultFamily == "" {
			t.Errorf("entry %q incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		// Padded entries run on the engine, except the sequential-oracle
		// references (marked by the explicit Oracle attribute).
		if e.Padded && !e.EngineAware && !e.Oracle {
			t.Errorf("entry %q: padded entries must run on the engine", e.Name)
		}
		if e.Oracle && e.EngineAware {
			t.Errorf("entry %q: oracle entries are sequential references and must not be engine-aware", e.Name)
		}
		if err := e.CheckFamily(e.DefaultFamily); err != nil {
			t.Errorf("entry %q rejects its own default family: %v", e.Name, err)
		}
	}
	for _, name := range []string{"cole-vishkin", "sinkless-msg", "pi2-det", "pi2-rand", "netdecomp"} {
		if !seen[name] {
			t.Errorf("missing entry %q", name)
		}
	}
}

func TestByNameAlias(t *testing.T) {
	direct, ok := ByName("cole-vishkin")
	if !ok {
		t.Fatal("cole-vishkin missing")
	}
	alias, ok := ByName("3coloring")
	if !ok {
		t.Fatal("3coloring alias missing")
	}
	if direct.Name != alias.Name {
		t.Fatalf("alias resolves to %q, want %q", alias.Name, direct.Name)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestCheckFamily(t *testing.T) {
	cv, _ := ByName("cole-vishkin")
	if err := cv.CheckFamily("cycle-advid"); err != nil {
		t.Errorf("cycle-advid rejected: %v", err)
	}
	if err := cv.CheckFamily("regular"); err == nil {
		t.Error("cycle-only entry accepted regular")
	}
	if err := cv.CheckFamily(PaddedFamily); err == nil {
		t.Error("graph entry accepted padded family")
	}
	pi, _ := ByName("pi2-det")
	if err := pi.CheckFamily(PaddedFamily); err != nil {
		t.Errorf("padded entry rejects padded family: %v", err)
	}
	if err := pi.CheckFamily("regular"); err == nil {
		t.Error("padded entry accepted a graph family")
	}
	sk, _ := ByName("sinkless-det")
	if err := sk.CheckFamily("moebius"); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestPaddedEntryReportsEngineStats is the registry-level acceptance
// check: padded cells execute on the engine and report nonzero
// deterministic delivery counts, identical across engine geometries.
func TestPaddedEntryReportsEngineStats(t *testing.T) {
	entry, _ := ByName("pi2-det")
	var first *Outcome
	for _, opts := range []engine.Options{{Workers: 1}, {Workers: 4, Shards: 16}, {Sequential: true}} {
		o, err := entry.Run(Request{Family: PaddedFamily, N: 12, Seed: 1, Engine: engine.New(opts)})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if o.Stats.Deliveries <= 0 || o.Stats.Rounds <= 0 {
			t.Fatalf("%+v: padded cell reported empty engine stats %+v", opts, o.Stats)
		}
		if o.Stats.Rounds > o.Rounds {
			t.Fatalf("%+v: measured rounds %d exceed analytical bound %d", opts, o.Stats.Rounds, o.Rounds)
		}
		if first == nil {
			first = o
			continue
		}
		if o.Checksum != first.Checksum || o.Stats != first.Stats || o.Rounds != first.Rounds {
			t.Fatalf("%+v: outcome differs across engine geometries", opts)
		}
	}
}

// TestPreparedRunRepeatable: every registry entry's Prepared must be
// reusable — repeated Run calls on one Prepared return the same outcome
// as a fresh prepare-and-run. This is the contract the serving layer's
// session pool stands on. The session-capable flat entries (Cole–Vishkin,
// sinkless-msg) are also prepared on the inline Sequential engine, whose
// session must reproduce the sharded checksum and rounds; the padded
// entries' inline mode is pinned by the tower grids.
func TestPreparedRunRepeatable(t *testing.T) {
	for _, e := range Registry() {
		req := Request{Family: e.DefaultFamily, N: 16, Seed: 5}
		if e.DefaultFamily == PaddedFamily {
			req.N = 12
		}
		if e.CycleOnly || e.DefaultFamily == "cycle" {
			req.N = 33
		}
		engines := []*engine.Engine{nil}
		if e.EngineAware {
			engines[0] = engine.New(engine.Options{Workers: 2, Shards: 8})
			if !e.Padded {
				engines = append(engines, engine.New(engine.Options{Sequential: true}))
			}
		}
		var sharded *Outcome
		for _, eng := range engines {
			req.Engine = eng
			first := preparedRepeatable(t, e, req)
			if sharded == nil {
				sharded = first
			} else if first.Checksum != sharded.Checksum || first.Rounds != sharded.Rounds {
				t.Fatalf("%s %+v: checksum %016x rounds %d, want sharded %016x rounds %d",
					e.Name, eng.Options(), first.Checksum, first.Rounds, sharded.Checksum, sharded.Rounds)
			}
		}
	}
}

// TestSequentialEngineHasSession: the session-capable solvers pin an
// inline typed session on a Sequential engine instead of reporting
// lcl.ErrNoSession, so lclPrepare reuses it across runs.
func TestSequentialEngineHasSession(t *testing.T) {
	seq := engine.New(engine.Options{Sequential: true})
	cyc, err := graph.NewCycle(33, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := graph.NewRandomRegular(64, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s lcl.SessionSolver
		g *graph.Graph
	}{
		{&coloring.CVSolver{MaxRounds: 1 << 20, Engine: seq}, cyc},
		{&sinkless.MessageSolver{MaxRounds: 4096, Engine: seq}, reg},
	} {
		sess, err := c.s.NewSolverSession(c.g)
		if err != nil {
			t.Fatalf("%T: sequential engine session: %v", c.s, err)
		}
		sess.Close()
	}
}

// preparedRepeatable prepares req, runs it twice, checks both runs and a
// fresh run agree, and returns the first outcome.
func preparedRepeatable(t *testing.T, e Entry, req Request) *Outcome {
	t.Helper()
	p, err := e.Prepare(req)
	if err != nil {
		t.Fatalf("%s: prepare: %v", e.Name, err)
	}
	first, err := p.Run()
	if err != nil {
		p.Close()
		t.Fatalf("%s: first run: %v", e.Name, err)
	}
	again, err := p.Run()
	if err != nil {
		p.Close()
		t.Fatalf("%s: second run: %v", e.Name, err)
	}
	p.Close()
	if again.Checksum != first.Checksum || again.Rounds != first.Rounds || again.Stats != first.Stats ||
		again.RelayWords != first.RelayWords {
		t.Fatalf("%s: repeated run differs: %+v vs %+v", e.Name, again, first)
	}
	fresh, err := e.Run(req)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", e.Name, err)
	}
	if fresh.Checksum != first.Checksum {
		t.Fatalf("%s: fresh checksum %016x differs from prepared %016x", e.Name, fresh.Checksum, first.Checksum)
	}
	return first
}

// TestEngineUnawareEntriesIgnoreEngine: non-engine entries run fine with
// a nil engine and report zero stats.
func TestEngineUnawareEntriesIgnoreEngine(t *testing.T) {
	for _, name := range []string{"sinkless-det", "mis", "netdecomp"} {
		e, _ := ByName(name)
		fam := e.DefaultFamily
		n := 64
		if fam == "cycle" {
			n = 33
		}
		o, err := e.Run(Request{Family: fam, N: n, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Stats != (engine.Stats{}) {
			t.Errorf("%s: non-engine entry reported engine stats %+v", name, o.Stats)
		}
		if o.Checksum == 0 || o.Cost == nil {
			t.Errorf("%s: incomplete outcome", name)
		}
	}
}
