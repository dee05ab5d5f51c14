package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"locallab/internal/graph"
)

// TypedMachine is the per-node program of a synchronous message-passing
// algorithm whose messages are concrete values of type M.
//
// Round consumes the messages received on each port (recv[p] is the
// message from port p's neighbor) and writes the messages to send into
// the engine-owned send buffer (send[p] is the message for port p's
// neighbor), returning whether this node has terminated with its final
// state. Both slices have length Degree and alias the engine's flat
// message planes, so no per-round allocation happens on either side.
//
// Contract:
//
//   - There is no silence: every port carries a value of M every round,
//     and every port slot of every delivery phase counts as a delivery.
//     Machines must write every send slot on every call — the buffers
//     are reused across rounds, so an unwritten slot would deliver the
//     previous round's message.
//   - In the first Round call no messages have arrived yet and recv
//     holds zero values of M; machines must track their own round count
//     instead of probing recv.
//   - recv and send contents are only valid during the call; machines
//     that need a received value later must copy it into their state.
type TypedMachine[M any] interface {
	// Init resets the machine with the node's initial knowledge.
	Init(info NodeInfo)
	// Round consumes recv and fills send, returning done.
	Round(recv []M, send []M) (done bool)
}

// Interceptor is the typed plane's delivery-fault hook: when installed
// on a Session it sees every message in flight during the delivery
// phase and may replace it — the mechanism the adversarial
// fault-injection plane (internal/adversary) uses to realize crash,
// drop, duplication, corruption, and Byzantine faults without touching
// machine code.
//
// Contract:
//
//   - BeginRound(round) is called once by the coordinator, before the
//     delivery phase of the given round (Session.Rounds() numbering),
//     strictly between phase barriers — never concurrently with Deliver.
//   - Deliver(slot, m) is called for every receiver port slot of every
//     delivery phase, where m is the message the sender wrote for that
//     slot; the returned value is what the receiver observes. Slots are
//     partitioned across shards, so Deliver may run concurrently for
//     different slots but never twice for the same slot in one phase.
//     For deterministic executions the result must depend only on
//     (round, slot, m) and per-slot state — never on worker, shard, or
//     call order — which keeps outputs byte-identical across every
//     Workers/Shards geometry, interceptor installed or not.
//   - A nil interceptor is the fast path: the delivery gather loop is
//     the same straight pass as before the hook existed, and the
//     steady-state round loop stays at 0 allocs/op (pinned by the
//     AllocsPerRun tests).
type Interceptor[M any] interface {
	// BeginRound announces the round whose delivery phase follows.
	BeginRound(round int)
	// Deliver maps the message in flight on receiver slot p.
	Deliver(p int32, m M) M
}

// Core is the generics-based execution core: the engine's sharded
// worker-pool round loop over a typed message plane. A Core holds only
// options; per-execution state lives in Sessions, so one Core can serve
// many graphs.
type Core[M any] struct {
	opts Options
}

// NewCore returns a typed execution core with the given options.
// Options.Sequential selects the inline (pool-free) execution mode with
// workers=shards=1; the semantics are identical by construction, and
// RunReference is the independent oracle both modes are tested against.
func NewCore[M any](opts Options) *Core[M] { return &Core[M]{opts: opts} }

// Run executes machines on g until every machine reports done or
// maxRounds is exceeded, returning the number of executed rounds.
func (c *Core[M]) Run(g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (int, error) {
	st, err := c.RunStats(g, machines, masterSeed, randomized, maxRounds)
	return st.Rounds, err
}

// RunStats is Run plus the execution profile. It is the one-shot
// convenience wrapper over NewSession for callers that execute a graph
// once; repeated executions should hold a Session to reuse its buffers.
func (c *Core[M]) RunStats(g *graph.Graph, machines []TypedMachine[M], masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	s, err := c.NewSession(g, machines)
	if err != nil {
		return Stats{}, err
	}
	defer s.Close()
	return s.Run(masterSeed, randomized, maxRounds)
}

// Session is a prepared execution of one machine set on one graph: the
// flat message planes, the shard table, and (in pooled mode) the worker
// goroutines, all allocated exactly once and reused across rounds and
// across Runs. The steady-state round loop — Step, and therefore the
// loop inside Run — performs no allocations at all, on either the engine
// or (for well-behaved typed machines) the machine side.
//
// A Session is not safe for concurrent use. Close releases the worker
// pool; a Session that only ever ran in sequential mode needs no Close,
// but calling it is always safe.
type Session[M any] struct {
	g        *graph.Graph
	machines []TypedMachine[M]
	n        int
	delta    int

	// off and route are views of the graph's CSR topology: off delimits
	// each node's contiguous port-slot run, route maps every slot to the
	// sender slot it gathers from. Both are owned by the graph and shared
	// across every Session on it.
	off   []int32
	route []int32

	// recv and send are the typed message plane: two flat []M buffers in
	// port-slot space. Compute reads recv and writes send; delivery
	// gathers send back into recv through the route table. No swap is
	// needed because the two phases alternate directions.
	recv []M
	send []M

	workers int
	shards  int
	inline  bool // sequential mode: run phases inline, no pool

	shardLo        []int32 // shardLo[s]..shardLo[s+1] is shard s's node range
	shardDone      []paddedBool
	shardDelivered []paddedCount

	seed       int64
	randomized bool
	phase      int
	rounds     int

	// srcs and rngs are the nodes' private random streams: allocated on
	// the first randomized Reset, reseeded in place on every later one,
	// so a randomized re-run seeds n streams without allocating.
	srcs []NodeSource
	rngs []rand.Rand

	// itc, when non-nil, observes and may rewrite every delivered
	// message (see Interceptor). The nil check happens once per shard,
	// outside the gather loop, so the nil case costs nothing.
	itc Interceptor[M]

	jobs    chan int
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// NewSession validates the machine set against the graph and allocates
// the per-execution state.
func (c *Core[M]) NewSession(g *graph.Graph, machines []TypedMachine[M]) (*Session[M], error) {
	n := g.NumNodes()
	if len(machines) != n {
		return nil, fmt.Errorf("engine: %d machines for %d nodes", len(machines), n)
	}
	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := c.opts.Shards
	if shards <= 0 {
		shards = 4 * workers
	}
	if shards > n {
		shards = n
	}
	if workers > shards {
		workers = shards
	}
	inline := c.opts.Sequential
	if inline {
		workers, shards = 1, 1
	}
	total := g.NumPorts()
	s := &Session[M]{
		g:              g,
		machines:       machines,
		n:              n,
		delta:          g.MaxDegree(),
		off:            g.PortOffsets(),
		route:          g.RouteTable(),
		recv:           make([]M, total),
		send:           make([]M, total),
		workers:        workers,
		shards:         shards,
		inline:         inline,
		shardLo:        make([]int32, shards+1),
		shardDone:      make([]paddedBool, shards),
		shardDelivered: make([]paddedCount, shards),
	}
	// Contiguous shard boundaries; the first n%shards shards take one
	// extra node.
	base, rem := n/shards, n%shards
	for i := 0; i < shards; i++ {
		size := base
		if i < rem {
			size++
		}
		s.shardLo[i+1] = s.shardLo[i] + int32(size)
	}
	// A size hint promises this session will actually execute, so the
	// warm-up allocations (job channel, worker goroutines) happen here
	// rather than on the first dispatch: the first Step then allocates
	// exactly as little as the steady state. The message planes above
	// are already allocated at full port extent either way — the hint
	// only moves the pool startup, it never changes capacity or outputs.
	if c.opts.Hint != nil && !inline {
		s.startPool()
		// One no-op barrier round-trip: parks every worker and the
		// coordinator once, so even the runtime's lazily allocated park
		// state exists before the first real round. After this, the first
		// Reset+Step window allocates exactly as little as steady state
		// (pinned by TestHintRemovesWarmupAllocations).
		s.dispatch(phaseWarmup)
	}
	return s, nil
}

// Close shuts down the worker pool. The Session must not be used after.
func (s *Session[M]) Close() {
	if s.started && !s.closed {
		close(s.jobs)
	}
	s.closed = true
}

// dispatch runs one phase across all shards: inline in sequential mode,
// through the persistent pool otherwise. The pool starts lazily on first
// use; the channel send orders the phase write before the workers' read,
// and wg.Wait orders every worker write before the coordinator's next
// read, so the round loop is barrier-clean.
func (s *Session[M]) dispatch(phase int) {
	s.phase = phase
	if s.inline {
		for i := 0; i < s.shards; i++ {
			s.runShard(i)
		}
		return
	}
	if !s.started {
		s.startPool()
	}
	s.wg.Add(s.shards)
	for i := 0; i < s.shards; i++ {
		s.jobs <- i
	}
	s.wg.Wait()
}

// startPool allocates the job channel and starts the worker goroutines.
// It runs lazily on the first dispatch, or eagerly from NewSession when
// an Options.Hint marks the session as certain to execute.
func (s *Session[M]) startPool() {
	s.jobs = make(chan int, s.shards)
	for w := 0; w < s.workers; w++ {
		go func() {
			for i := range s.jobs {
				s.runShard(i)
				s.wg.Done()
			}
		}()
	}
	s.started = true
}

func (s *Session[M]) runShard(i int) {
	switch s.phase {
	case phaseInit:
		s.initShard(i)
	case phaseCompute:
		s.computeShard(i)
	case phaseDeliver:
		s.deliverShard(i)
	}
}

func (s *Session[M]) initShard(i int) {
	for v := s.shardLo[i]; v < s.shardLo[i+1]; v++ {
		id := s.g.ID(graph.NodeID(v))
		var rng *rand.Rand
		if s.randomized {
			rng = &s.rngs[v]
			rng.Seed(NodeSeed(s.seed, id))
		}
		s.machines[v].Init(NodeInfo{
			N:      s.n,
			Delta:  s.delta,
			ID:     id,
			Degree: s.g.Degree(graph.NodeID(v)),
			RNG:    rng,
		})
	}
}

func (s *Session[M]) computeShard(i int) {
	allDone := true
	for v := s.shardLo[i]; v < s.shardLo[i+1]; v++ {
		o0, o1 := s.off[v], s.off[v+1]
		if !s.machines[v].Round(s.recv[o0:o1:o1], s.send[o0:o1:o1]) {
			allDone = false
		}
	}
	s.shardDone[i].v = allDone
}

// deliverShard gathers messages receiver-side: every port slot of the
// shard's nodes pulls from its sender's slot in the send plane. The
// route table is a permutation of the slot space, slots are contiguous
// per shard, and no two shards share a slot, so the gather is a straight
// pass over contiguous memory with no contention and no clearing pass.
func (s *Session[M]) deliverShard(i int) {
	lo := s.off[s.shardLo[i]]
	hi := s.off[s.shardLo[i+1]]
	recv, send, route := s.recv, s.send, s.route
	if itc := s.itc; itc != nil {
		// Fault-injection path: every in-flight message passes through
		// the interceptor; what it returns is what the receiver observes.
		for p := lo; p < hi; p++ {
			recv[p] = itc.Deliver(p, send[route[p]])
		}
	} else {
		for p := lo; p < hi; p++ {
			recv[p] = send[route[p]]
		}
	}
	s.shardDelivered[i].v += int64(hi - lo)
}

// SetInterceptor installs (or, with nil, removes) the delivery
// interceptor. It must not be called while a Step or Run is executing;
// the usual pattern is SetInterceptor then Reset. Installing an
// interceptor never changes which slots are delivered, only their
// contents — and a nil interceptor restores the original zero-overhead
// gather loop.
func (s *Session[M]) SetInterceptor(itc Interceptor[M]) { s.itc = itc }

// Reset re-initializes every machine under the given seed and clears the
// message plane and counters, leaving the Session at round zero. It is
// the explicit-stepping counterpart of the setup Run performs.
func (s *Session[M]) Reset(masterSeed int64, randomized bool) {
	s.seed = masterSeed
	s.randomized = randomized
	s.rounds = 0
	clear(s.recv)
	clear(s.send)
	for i := range s.shardDelivered {
		s.shardDelivered[i].v = 0
	}
	if randomized && s.rngs == nil {
		s.srcs = make([]NodeSource, s.n)
		s.rngs = make([]rand.Rand, s.n)
		for v := range s.rngs {
			s.rngs[v] = *rand.New(&s.srcs[v])
		}
	}
	s.dispatch(phaseInit)
}

// Step executes one synchronous round: a compute phase and — unless
// every machine reported done — a delivery phase. It returns whether the
// execution has terminated. Stepping a terminated system is legal and
// keeps invoking the machines, but note it skips delivery exactly like
// Run's final round; allocation measurements that want the full
// compute+deliver loop must keep at least one machine reporting not
// done (see the pinned* wrappers in the coloring and sinkless alloc
// tests).
func (s *Session[M]) Step() (done bool) {
	s.rounds++
	s.dispatch(phaseCompute)
	for i := range s.shardDone {
		if !s.shardDone[i].v {
			if s.itc != nil {
				s.itc.BeginRound(s.rounds)
			}
			s.dispatch(phaseDeliver)
			return false
		}
	}
	return true
}

// Rounds returns the number of rounds executed since the last Reset.
func (s *Session[M]) Rounds() int { return s.rounds }

// Deliveries returns the messages delivered since the last Reset.
func (s *Session[M]) Deliveries() int64 {
	var total int64
	for i := range s.shardDelivered {
		total += s.shardDelivered[i].v
	}
	return total
}

// Run executes a full synchronous execution: Reset, then rounds until
// every machine reports done or maxRounds is exceeded. The returned
// Stats profile is deterministic for a given (graph, machines, seed) —
// identical across every Workers/Shards setting and across the pooled
// and inline modes. On ErrRoundLimit the Stats still describe the
// partial execution.
func (s *Session[M]) Run(masterSeed int64, randomized bool, maxRounds int) (Stats, error) {
	s.Reset(masterSeed, randomized)
	stats := Stats{Workers: s.workers, Shards: s.shards}
	for round := 1; round <= maxRounds; round++ {
		if s.Step() {
			stats.Rounds = round
			stats.Deliveries = s.Deliveries()
			return stats, nil
		}
	}
	stats.Rounds = maxRounds
	stats.Deliveries = s.Deliveries()
	return stats, ErrRoundLimit
}
