// Package core implements the paper's primary contribution: the padding
// transform of Section 3. Given an ne-LCL Π and the (log, Δ)-gadget
// family of Section 4, it constructs the padded problem Π′ (Section 3.3),
// padded instances (Definition 3, Lemma 5), the Lemma-4 solver that
// simulates a Π-solver on the virtual graph obtained by contracting valid
// gadgets, and the recursive hierarchy Πᵢ of Theorem 11.
//
// Two executions of the Lemma-4 pipeline exist. PaddedSolver is the
// sequential oracle: centralized Ψ walk, one centralized inner Solve
// call on the virtual graph H. EnginePaddedSolver runs the same
// pipeline as machines on the sharded engine: Ψ as a fixpoint exchange,
// and the inner algorithm as native VirtualMachines over the payload
// relay plane (vm.go, relay.go) — no centralized inner Solve anywhere.
// Steps 2-3 and 5 are shared code (planPadded, assemblePadded); step 4
// is differential-tested native vs centralized.
//
// Invariants (pinned by tests in this package and at the root):
//
//   - Byte-identity. Both solvers produce identical output labelings for
//     a given (instance, seed), across every engine worker/shard
//     geometry, pooled or inline.
//   - Seed-pinned randomness. Randomized inner streams derive from
//     (master seed, virtual identifier) — the gadget's minimal physical
//     identifier — never from worker, shard, or scheduling state.
//   - 0 allocs/op steady state. The Ψ, mask-simulation, and
//     payload-relay round loops allocate nothing after session setup.
//   - Honest accounting. The engine path charges measured rounds (Ψ
//     radius + relay-session length), and its measured engine rounds
//     never exceed the charged Cost bound.
//
// See docs/ARCHITECTURE.md for the layer diagram and the map from the
// paper's lemmas into this package.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"locallab/internal/lcl"
)

// Edge-class input marks distinguishing gadget-internal edges from the
// edges joining ports of different gadgets (Definition 3).
const (
	MarkGadEdge  lcl.Label = "GadEdge"
	MarkPortEdge lcl.Label = "PortEdge"
)

// Port-validity output labels (Section 3.3, constraints 3 and 4).
const (
	PortErr1  lcl.Label = "PortErr1"
	PortErr2  lcl.Label = "PortErr2"
	NoPortErr lcl.Label = "NoPortErr"
)

// LabPsiEdge is the placeholder output from Σ^G of ΨG on gadget edges and
// gadget half-edges (our ΨG carries its content on nodes); port edges and
// port half-edges must carry the empty label ε instead (constraint 1).
const LabPsiEdge lcl.Label = "psi-ok"

// Composite labels. Compose packs component labels into one label and
// Split unpacks it. A composite label is a JSON array of strings, so
// composite labels of level i embed those of level i-1 without escaping
// issues.
//
// The canonical form is what Compose emits for parts made of printable
// ASCII other than <, > and &: ["p0","p1",…] with no whitespace, and
// with `"` and `\` inside a part written as \" and \\. These are exactly
// json.Marshal's bytes for such a []string, and nested tower labels are
// always canonical. Compose writes this form directly. Split decodes
// this shape directly whenever every part holds only non-control ASCII
// and no escapes but \" and \\; it returns each part that has no
// escapes as a substring of the label, with no copy.
//
// Everything else goes through encoding/json, chosen from the label
// bytes alone: Compose marshals parts holding any other byte, and Split
// unmarshals labels with whitespace, any other escape, control bytes,
// non-ASCII, null or the wrong number of parts. So the labels accepted,
// the parts returned and the error text are exactly encoding/json's.

// Compose packs component labels into one composite label. Marshal
// failures (only reachable through invalid UTF-8 smuggled into labels)
// are returned, not panicked, so malformed instance inputs surface as
// messages.
func Compose(parts ...lcl.Label) (lcl.Label, error) {
	size := 1 + len(parts) // brackets and commas
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			switch c := p[i]; {
			case c < 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&':
				return composeJSON(parts)
			case c == '"' || c == '\\':
				size++
			}
		}
		size += len(p) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('[')
	for k, p := range parts {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('"')
		for i := 0; i < len(p); i++ {
			if c := p[i]; c == '"' || c == '\\' {
				b.WriteByte('\\')
			}
			b.WriteByte(p[i])
		}
		b.WriteByte('"')
	}
	b.WriteByte(']')
	return lcl.Label(b.String()), nil
}

// composeJSON is Compose for parts outside the canonical alphabet.
func composeJSON(parts []lcl.Label) (lcl.Label, error) {
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = string(p)
	}
	b, err := json.Marshal(ss)
	if err != nil {
		return "", fmt.Errorf("compose label: %w", err)
	}
	return lcl.Label(b), nil
}

// Split unpacks a composite label into exactly n parts.
func Split(l lcl.Label, n int) ([]lcl.Label, error) {
	if n >= 0 {
		out := make([]lcl.Label, n)
		if splitCanonical(l, out) {
			return out, nil
		}
	}
	return splitJSON(l, n)
}

// splitInto is Split into a caller-owned slice of exactly the wanted
// part count, so callers decoding into a fixed-size array allocate
// nothing for a canonical label.
func splitInto(l lcl.Label, dst []lcl.Label) error {
	if splitCanonical(l, dst) {
		return nil
	}
	parts, err := splitJSON(l, len(dst))
	if err != nil {
		return err
	}
	copy(dst, parts)
	return nil
}

// splitCanonical decodes a canonical composite label of exactly len(dst)
// parts into dst and reports whether it could; on false, dst holds
// garbage and the caller falls back to splitJSON.
func splitCanonical(l lcl.Label, dst []lcl.Label) bool {
	s := string(l)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return false
	}
	i := 1
	for k := range dst {
		if k > 0 {
			if s[i] != ',' {
				return false
			}
			i++
		}
		if s[i] != '"' {
			return false
		}
		i++
		start, escapes := i, 0
		for ; s[i] != '"'; i++ {
			switch c := s[i]; {
			case c == '\\':
				if i+2 >= len(s) || (s[i+1] != '"' && s[i+1] != '\\') {
					return false
				}
				escapes++
				i++
			case c < 0x20 || c >= 0x80 || i == len(s)-1:
				return false
			}
		}
		dst[k] = lcl.Label(unescape(s[start:i], escapes))
		i++
	}
	return i == len(s)-1
}

// unescape drops the backslash of each of a canonical part's escapes.
func unescape(raw string, escapes int) string {
	if escapes == 0 {
		return raw
	}
	b := make([]byte, 0, len(raw)-escapes)
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\\' {
			i++
		}
		b = append(b, raw[i])
	}
	return string(b)
}

// splitJSON is Split through encoding/json: the reference semantics for
// every label, and the decoder for the non-canonical ones.
func splitJSON(l lcl.Label, n int) ([]lcl.Label, error) {
	var ss []string
	if err := json.Unmarshal([]byte(l), &ss); err != nil {
		return nil, fmt.Errorf("split label %q: %w", l, err)
	}
	if len(ss) != n {
		return nil, fmt.Errorf("split label: got %d parts, want %d", len(ss), n)
	}
	out := make([]lcl.Label, n)
	for i, s := range ss {
		out[i] = lcl.Label(s)
	}
	return out, nil
}

// Input label layout of Π′:
//
//	node:  [ Π-input, gadget node label ]        (Portᵢ/NoPort is carried
//	                                              inside the gadget label)
//	edge:  [ Π-input, class mark ]               (class ∈ {GadEdge, PortEdge})
//	half:  [ Π-input, gadget half label ]
//
// Part 0 is the Π layer, part 1 the gadget layer.
const inParts = 2

// Output label layout of Π′:
//
//	node:  [ Σlist JSON, portErr, Ψ output ]
//	edge:  single label: ε on port edges, ψ placeholder on gadget edges
//	half:  same convention as edges
const outNodeParts = 3

// SigmaList is the Σlist component of a node's output (Section 3.3): the
// valid-port set S, copies of the virtual node's inputs, and the virtual
// node's outputs, all indexed by physical gadget port 1..Δ (slot i-1).
type SigmaList struct {
	S  []int    `json:"s"`  // ascending physical port indices in S
	IV string   `json:"iv"` // virtual node input  (copied from Port1)
	IE []string `json:"ie"` // virtual edge inputs  per port
	IB []string `json:"ib"` // virtual half inputs  per port
	OV string   `json:"ov"` // virtual node output
	OE []string `json:"oe"` // virtual edge outputs per port
	OB []string `json:"ob"` // virtual half outputs per port
}

// NewSigmaList allocates Δ-wide slots.
func NewSigmaList(delta int) *SigmaList {
	return &SigmaList{
		IE: make([]string, delta),
		IB: make([]string, delta),
		OE: make([]string, delta),
		OB: make([]string, delta),
	}
}

// Encode renders the Σlist as a label. Marshal failures are returned,
// not panicked, mirroring Compose.
func (sl *SigmaList) Encode() (lcl.Label, error) {
	b, err := json.Marshal(sl)
	if err != nil {
		return "", fmt.Errorf("encode sigma list: %w", err)
	}
	return lcl.Label(b), nil
}

// DecodeSigmaList parses a Σlist label, validating slot widths against Δ.
func DecodeSigmaList(l lcl.Label, delta int) (*SigmaList, error) {
	var sl SigmaList
	if err := json.Unmarshal([]byte(l), &sl); err != nil {
		return nil, fmt.Errorf("decode sigma list: %w", err)
	}
	if len(sl.IE) != delta || len(sl.IB) != delta || len(sl.OE) != delta || len(sl.OB) != delta {
		return nil, fmt.Errorf("decode sigma list: slot widths %d/%d/%d/%d, want Δ=%d",
			len(sl.IE), len(sl.IB), len(sl.OE), len(sl.OB), delta)
	}
	prev := 0
	for _, p := range sl.S {
		if p < 1 || p > delta {
			return nil, fmt.Errorf("decode sigma list: port %d out of 1..Δ", p)
		}
		if p <= prev {
			return nil, fmt.Errorf("decode sigma list: S not strictly ascending")
		}
		prev = p
	}
	return &sl, nil
}

// Contains reports whether physical port i lies in S.
func (sl *SigmaList) Contains(i int) bool {
	for _, p := range sl.S {
		if p == i {
			return true
		}
	}
	return false
}
