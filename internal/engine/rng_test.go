package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"locallab/internal/engine"
)

// nodeSourceSeeds are the stdlib's seed-reduction edge cases: the zero
// stand-in, multiples of the LCG modulus, the int64 extremes and the
// value a zero seed is replaced by.
var nodeSourceSeeds = []int64{
	0, 1, -1,
	1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1),
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	89482311,
}

// drawMixed draws n values from r with a mix of Rand methods chosen by
// pick, folding every value into one comparable slice. The mix must
// drive both sources identically, so pick decides from the draw index
// only.
func drawMixed(r *rand.Rand, n int, pick func(i int) int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; len(out) < n; i++ {
		switch pick(i) % 6 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, r.Uint64())
		case 2:
			out = append(out, uint64(r.Intn(1+i%1000)))
		case 3:
			out = append(out, math.Float64bits(r.Float64()))
		case 4:
			for _, v := range r.Perm(1 + i%7) {
				out = append(out, uint64(v))
			}
		case 5:
			out = append(out, uint64(r.Int31n(3)))
		}
	}
	return out[:n]
}

func compareStreams(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d = %#x, want %#x", label, i, got[i], want[i])
		}
	}
}

// TestNodeSourceMatchesStdlib pins NodeSource to math/rand's seeded
// source: through rand.New, every Rand method draws the same values, far
// past the register spill at draw 274, and reseeding a spilled source
// (through Rand.Seed, as engine sessions do) restarts the same stream.
func TestNodeSourceMatchesStdlib(t *testing.T) {
	seeds := append([]int64(nil), nodeSourceSeeds...)
	seedGen := rand.New(rand.NewSource(2024))
	for len(seeds) < 210 {
		seeds = append(seeds, int64(seedGen.Uint64()))
	}
	pickers := map[string]func(int) int{
		"int63":   func(int) int { return 0 },
		"uint64":  func(int) int { return 1 },
		"mixed":   func(i int) int { return i*7 + i/3 },
		"intn":    func(int) int { return 2 },
		"float64": func(int) int { return 3 },
	}
	reused := rand.New(engine.NewNodeSource(0))
	for _, seed := range seeds {
		for name, pick := range pickers {
			want := drawMixed(rand.New(rand.NewSource(seed)), 3000, pick)
			compareStreams(t, name+"/fresh", drawMixed(rand.New(engine.NewNodeSource(seed)), 3000, pick), want)
			// reused has spilled on an earlier seed: Seed must reset it.
			reused.Seed(seed)
			compareStreams(t, name+"/reseeded", drawMixed(reused, 3000, pick), want)
		}
	}
}

// TestNodeSourceShortStreams covers reseeding at every point around the
// spill: a source reseeded after k draws, for k across the boundary,
// replays the stdlib stream from its start.
func TestNodeSourceShortStreams(t *testing.T) {
	src := engine.NewNodeSource(5)
	for k := 270; k <= 280; k++ {
		src.Seed(int64(k))
		for i := 0; i < k; i++ {
			src.Uint64()
		}
		src.Seed(-int64(k))
		want := rand.NewSource(-int64(k)).(rand.Source64)
		for i := 0; i < 700; i++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed after %d draws: draw %d = %#x, want %#x", k, i, g, w)
			}
		}
	}
}

// TestDeriveRNGMatchesStdlibSeed pins DeriveRNG's stream to the stdlib
// source under NodeSeed, the stream RunReference draws.
func TestDeriveRNGMatchesStdlibSeed(t *testing.T) {
	for _, master := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for id := int64(-3); id < 40; id++ {
			want := drawMixed(rand.New(rand.NewSource(engine.NodeSeed(master, id))), 400, func(i int) int { return i })
			compareStreams(t, "DeriveRNG", drawMixed(engine.DeriveRNG(master, id), 400, func(i int) int { return i }), want)
		}
	}
}

// TestNodeSourceSeedAllocs: seeding and short draws allocate nothing.
func TestNodeSourceSeedAllocs(t *testing.T) {
	r := rand.New(engine.NewNodeSource(1))
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		r.Intn(3)
	}); allocs != 0 {
		t.Fatalf("reseed + draw allocates %v times, want 0", allocs)
	}
}

// FuzzNodeSource differential-fuzzes NodeSource against the stdlib
// source over seeds, stream lengths and a reseed point.
func FuzzNodeSource(f *testing.F) {
	for _, s := range nodeSourceSeeds {
		f.Add(s, uint16(300), uint16(10), s^1)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, reseedAt uint16, seed2 int64) {
		src := engine.NewNodeSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		n %= 1500
		for i := 0; i < int(n); i++ {
			if i == int(reseedAt) {
				src.Seed(seed2)
				want.Seed(seed2)
			}
			g, w := src.Uint64(), want.Uint64()
			if i%2 == 1 {
				g, w = uint64(src.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d (reseed %d at %d): draw %d = %#x, want %#x", seed, seed2, reseedAt, i, g, w)
			}
		}
	})
}

// BenchmarkNodeSourceSeedDraw is seeding plus the first draw, the cost a
// randomized run pays per node.
func BenchmarkNodeSourceSeedDraw(b *testing.B) {
	r := rand.New(engine.NewNodeSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		r.Intn(3)
	}
}

// BenchmarkStdlibSourceSeedDraw is the same with math/rand's source.
func BenchmarkStdlibSourceSeedDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i))).Intn(3)
	}
}
