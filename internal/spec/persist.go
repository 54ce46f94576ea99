package spec

import (
	"encoding/json"
	"fmt"
	"math"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/period"
)

// Portable is the serialized form of a relational specification: the
// period (hence W), the primary database B, and the predicate signatures
// needed to type queries. It is a complete, stand-alone representation of
// the infinite least model — the point of Section 3.3 — so a consumer can
// answer every temporal query without the rules, the database, or any
// re-evaluation.
type Portable struct {
	Version int                     `json:"version"`
	Base    int                     `json:"base"`
	Period  int                     `json:"period"`
	Preds   map[string]ast.PredInfo `json:"preds"`
	Facts   []ast.Fact              `json:"facts"`
}

// portableVersion guards the wire format.
const portableVersion = 1

// Export serializes the specification. The preds map (usually the
// program's plus the database's) rides along so query parsers can
// type-check against the loaded form.
func (s *Spec) Export(preds map[string]ast.PredInfo) ([]byte, error) {
	p := Portable{
		Version: portableVersion,
		Base:    s.Period.Base,
		Period:  s.Period.P,
		Preds:   preds,
		Facts:   s.PrimaryDatabase(),
	}
	return json.MarshalIndent(p, "", " ")
}

// Loaded is a deserialized relational specification: a finite structure
// that answers temporal queries exactly like the Spec it was exported
// from (it implements query.Structure).
type Loaded struct {
	Period period.Period
	preds  map[string]ast.PredInfo
	store  *engine.Store
}

// Import deserializes a specification exported by Export.
func Import(data []byte) (*Loaded, error) {
	var p Portable
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if p.Version != portableVersion {
		return nil, fmt.Errorf("spec: unsupported specification version %d (want %d)", p.Version, portableVersion)
	}
	if p.Period < 1 || p.Base < 0 || p.Base > math.MaxInt-p.Period {
		return nil, fmt.Errorf("spec: malformed period (b=%d, p=%d)", p.Base, p.Period)
	}
	l := &Loaded{
		Period: period.Period{Base: p.Base, P: p.Period},
		preds:  p.Preds,
		store:  engine.NewStore(),
	}
	for i, f := range p.Facts {
		if err := checkFact(f, &p); err != nil {
			return nil, fmt.Errorf("spec: fact %d (%s): %w", i, f, err)
		}
		l.store.Insert(f)
	}
	return l, nil
}

// checkFact rejects a fact that Export cannot have written. Import is a
// trust boundary (a file named on a command line, a body fetched from
// another server), and each of these would silently change answers: a
// time outside the representatives is never reached by the rewrite, and
// an undeclared predicate's constants would join the domain quantifiers
// range over.
func checkFact(f ast.Fact, p *Portable) error {
	info, ok := p.Preds[f.Pred]
	switch {
	case !ok:
		return fmt.Errorf("predicate %q is not declared in preds", f.Pred)
	case f.Temporal != info.Temporal || len(f.Args) != info.Arity:
		return fmt.Errorf("contradicts the declared signature %s", info)
	case f.Temporal && f.Time < 0:
		return fmt.Errorf("negative time %d", f.Time)
	case f.Temporal && f.Time >= p.Base+p.Period:
		return fmt.Errorf("time %d beyond the %d representatives", f.Time, p.Base+p.Period)
	}
	for j, a := range f.Args {
		if a == "" {
			return fmt.Errorf("argument %d is the empty constant", j+1)
		}
	}
	return nil
}

// Preds returns the predicate signatures for query typing.
func (l *Loaded) Preds() map[string]ast.PredInfo { return l.preds }

// HoldsFact answers a ground atomic query: rewrite, then look up in B.
func (l *Loaded) HoldsFact(f ast.Fact) bool {
	if f.Temporal {
		f.Time = l.Period.Canonical(f.Time)
	}
	return l.store.Has(f)
}

// Store, TimePoints, NormalizeTime, ConstantDomain and StateClasses
// implement query.Structure as Spec does, over the imported B.
func (l *Loaded) Store() *engine.Store { return l.store }

// TimePoints returns |T| = b + p.
func (l *Loaded) TimePoints() int { return l.Period.Base + l.Period.P }

// NormalizeTime rewrites t to its representative.
func (l *Loaded) NormalizeTime(t int) (int, bool) { return l.Period.Canonical(t), true }

// ConstantDomain returns the active domain of non-temporal constants.
func (l *Loaded) ConstantDomain() []string { return l.store.Constants() }

// StateClasses returns none: the imported B is not classed.
func (l *Loaded) StateClasses() (class, first []uint32) { return nil, nil }
