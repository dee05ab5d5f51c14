package lcl

import (
	"errors"

	"locallab/internal/graph"
	"locallab/internal/local"
)

// SolverSession is a solver execution pinned to one graph: whatever the
// solver can allocate once per graph — typed engine sessions with their
// flat message planes and worker pools, machine sets, schedules — is
// built at session construction and reused by every Solve. Solve has the
// same contract as Solver.Solve on the pinned graph, and repeated calls
// under one seed must produce identical labelings (the serving layer's
// pooled-vs-fresh parity tests pin this). Sessions are not safe for
// concurrent use. Close releases pinned resources; the session must not
// be used after.
type SolverSession interface {
	Solve(in *Labeling, seed int64) (*Labeling, *local.Cost, error)
	Close()
}

// SessionSolver is the optional capability of solvers that can pin a
// reusable session to one graph. Callers that run the same instance
// repeatedly — the serving layer's session pool — probe for it with a
// type assertion and fall back to per-call Solve when it is absent or
// NewSolverSession reports ErrNoSession.
type SessionSolver interface {
	NewSolverSession(g *graph.Graph) (SolverSession, error)
}

// ErrNoSession reports that a SessionSolver cannot pin a reusable
// session under its current configuration; callers fall back to
// per-call Solve. No in-tree solver reports it today — every engine
// configuration, the inline Sequential mode included, gets a typed
// session — but callers keep the fallback so a solver may decline.
var ErrNoSession = errors.New("lcl: no reusable session for this configuration")
