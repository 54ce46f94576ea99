package progan

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"tdd/internal/ast"
)

// Slice is the backward-reachable fragment of a program relevant to a
// set of goal predicates: every rule whose head can (transitively) feed
// a goal, plus every predicate those rules or the goals mention. This is
// magic-sets-lite — predicate-level relevance with no sideways
// information passing — so the slice theorem is the classic one: the
// least model of the sliced program over the sliced database equals the
// full least model restricted to the slice's predicates.
type Slice struct {
	// Goals are the requested predicates, sorted (unknown names are kept:
	// they slice to nothing but still key the fingerprint).
	Goals []string
	// Preds is the backward closure, sorted.
	Preds []string
	// Rules lists the included rule indices in program order.
	Rules []int
	// Total is the full program's rule count.
	Total int

	prog    *ast.Program
	predSet map[string]bool
}

// SliceOf computes the backward-reachable slice of prog for the goal
// predicates. It reads the rules alone — no database, no Report — so a
// caller can decide whether a slice is proper before paying for anything
// else.
func SliceOf(prog *ast.Program, goals []string) *Slice {
	s := &Slice{
		Goals:   append([]string(nil), goals...),
		Total:   len(prog.Rules),
		prog:    prog,
		predSet: make(map[string]bool),
	}
	sort.Strings(s.Goals)
	for _, g := range s.Goals {
		s.predSet[g] = true
	}
	// Sweep the rules until no head joins the closure: a rule is taken
	// once, when its head is first reached, and brings its body along.
	in := make([]bool, len(prog.Rules))
	for changed := true; changed; {
		changed = false
		for i, rule := range prog.Rules {
			if in[i] || !s.predSet[rule.Head.Pred] {
				continue
			}
			in[i], changed = true, true
			for _, a := range rule.Body {
				s.predSet[a.Pred] = true
			}
		}
	}
	for i, taken := range in {
		if taken {
			s.Rules = append(s.Rules, i)
		}
	}
	s.Preds = make([]string, 0, len(s.predSet))
	for p := range s.predSet {
		s.Preds = append(s.Preds, p)
	}
	sort.Strings(s.Preds)
	return s
}

// QueryPreds returns the distinct predicates mentioned by a parsed
// query, sorted — the goal set its slice is computed from.
func QueryPreds(q ast.Query) []string {
	set := make(map[string]bool)
	for _, a := range ast.QueryAtoms(q) {
		set[a.Pred] = true
	}
	return sortedSet(set)
}

// Contains reports whether the predicate is in the slice.
func (s *Slice) Contains(pred string) bool { return s.predSet[pred] }

// Proper reports whether the slice drops at least one rule — the only
// case in which evaluating it can beat evaluating the full program.
func (s *Slice) Proper() bool { return len(s.Rules) < s.Total }

// Fingerprint is a digest of the slice's identity: the goal set and the
// predicate closure. Tools print it (tdd graph -q, /debug/graph) so
// two queries can be seen to select the same slice.
func (s *Slice) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(strings.Join(s.Goals, "\x00")))
	h.Write([]byte{1})
	h.Write([]byte(strings.Join(s.Preds, "\x00")))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}

// Program builds the sliced program: the included rules, deep-copied,
// with signatures re-inferred. Signatures were consistent in the full
// program, so construction cannot fail on a subset.
func (s *Slice) Program() (*ast.Program, error) {
	rules := make([]ast.Rule, 0, len(s.Rules))
	for _, i := range s.Rules {
		rules = append(rules, s.prog.Rules[i].Clone())
	}
	return ast.NewProgram(rules)
}

// FilterFacts keeps the facts over sliced predicates (shared, not
// copied; facts are immutable once built).
func (s *Slice) FilterFacts(facts []ast.Fact) []ast.Fact {
	out := make([]ast.Fact, 0, len(facts))
	for _, f := range facts {
		if s.predSet[f.Pred] {
			out = append(out, f)
		}
	}
	return out
}

// Database builds the sliced database from a full one.
func (s *Slice) Database(db *ast.Database) (*ast.Database, error) {
	return ast.NewDatabase(s.FilterFacts(db.Facts))
}
