package engine

import "math/rand"

// NodeSource replays math/rand's seeded source bit for bit: for every
// seed, rand.New(NewNodeSource(seed)) draws exactly the stream of
// rand.New(rand.NewSource(seed)), through every Rand method.
//
// The stdlib source is an additive lagged-Fibonacci generator over a
// 607-word register (feed and tap 273 apart), and seeding fills the whole
// register from 1821 steps of the Lehmer LCG x ← 48271·x mod 2³¹−1, each
// word XORed with a fixed "cooked" constant. That costs ~14 µs and a
// 4.9 KB allocation per seeding, paid per node per randomized run, where
// a node usually draws once. NodeSource stores only the LCG seed instead.
// Draws 1–273 read nothing but freshly seeded words, so each is computed
// straight from the seed by LCG jump-ahead (48271^j·x mod 2³¹−1 from a
// power table). Draw 274 is the first to read a word an earlier draw
// wrote, so it materializes the register once, replays the served draws
// into it, and continues with the standard generator step.
//
// The zero value is not a valid source; call Seed (or NewNodeSource)
// first. A NodeSource is not safe for concurrent use.
type NodeSource struct {
	x     uint64 // seed mod 2³¹−1, the LCG state every seeded word derives from
	drawn int    // draws served from seeded words; rngTap+1 once the register exists
	tap   int
	feed  int
	vec   *[rngLen]uint64 // the register after the spill, kept across reseeds
}

var _ rand.Source64 = (*NodeSource)(nil)

const (
	rngLen      = 607       // register length
	rngTap      = 273       // feed-to-tap lag; also the draws served without a register
	lcgMod      = 1<<31 - 1 // seeding LCG modulus
	lcgMul      = 48271     // seeding LCG multiplier
	lcgSkip     = 21        // LCG steps before the one that feeds word 0
	rngZeroSeed = 89482311  // stand-in for a seed ≡ 0 mod 2³¹−1
	rngMask     = 1<<63 - 1 // Int63 mask
)

var (
	// lcgPow[j] = 48271^(lcgSkip+j) mod 2³¹−1: word i of the register
	// mixes LCG states lcgSkip+3i, +3i+1 and +3i+2.
	lcgPow [3 * rngLen]uint64
	// rngCooked holds the constants the stdlib XORs into the seeded
	// register, recovered by cookedFromStdlib.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for j := 0; j < lcgSkip; j++ {
		p = p * lcgMul % lcgMod
	}
	for j := range lcgPow {
		lcgPow[j] = p
		p = p * lcgMul % lcgMod
	}
	rngCooked = cookedFromStdlib()
}

// cookedFromStdlib derives the cooked constants from the first 607
// outputs of rand.NewSource(1) by running the generator backwards.
// Draw k (1-based) adds the tap word (607−k) into the feed word
// (334−k) mod 607 and returns the sum, and each word is fed exactly once
// in draws 1–607. For k > 273 the tap word was fed at draw k−273, so
// seeded[feed(k)] = out[k] − out[k−273]. For k ≤ 273 the tap word is
// still seeded and was recovered by the first case, so
// seeded[feed(k)] = out[k] − seeded[607−k]. XORing out the seed-1 LCG
// part of each seeded word leaves its constant.
func cookedFromStdlib() [rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var seeded, cooked [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		seeded[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		seeded[rngLen-rngTap-k] = out[k] - seeded[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = seeded[i] ^ lcgWord(1, i)
	}
	return cooked
}

// lcgWord is the LCG part of register word i under LCG seed x.
func lcgWord(x uint64, i int) uint64 {
	j := 3 * i
	a := lcgPow[j] * x % lcgMod
	b := lcgPow[j+1] * x % lcgMod
	c := lcgPow[j+2] * x % lcgMod
	return a<<40 ^ b<<20 ^ c
}

// seededWord is register word i as the stdlib's Seed leaves it.
func seededWord(x uint64, i int) uint64 { return lcgWord(x, i) ^ rngCooked[i] }

// NewNodeSource returns a NodeSource seeded with seed.
func NewNodeSource(seed int64) *NodeSource {
	s := &NodeSource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source with the stdlib's seed reduction. It costs
// O(1) and allocates nothing; a register left by an earlier spill is
// kept for reuse.
func (s *NodeSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = rngZeroSeed
	}
	s.x = uint64(seed)
	s.drawn = 0
}

// Int63 implements rand.Source.
func (s *NodeSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *NodeSource) Uint64() uint64 {
	if s.drawn < rngTap {
		s.drawn++
		return seededWord(s.x, rngLen-rngTap-s.drawn) + seededWord(s.x, rngLen-s.drawn)
	}
	if s.drawn == rngTap {
		s.spill()
	}
	return s.step()
}

// spill materializes the seeded register and replays the rngTap draws
// already served from it, leaving the source in the stdlib's state.
func (s *NodeSource) spill() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	for i := range s.vec {
		s.vec[i] = seededWord(s.x, i)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for k := 0; k < rngTap; k++ {
		s.step()
	}
	s.drawn = rngTap + 1
}

// step is the stdlib's lagged-Fibonacci step on the register.
func (s *NodeSource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
