package engine

import (
	"fmt"
	"strings"

	"tdd/internal/ast"
)

// Derivation records how a fact was first derived: the source rule and the
// ground body facts that fired it. Database facts have no derivation.
type Derivation struct {
	Rule ast.Rule
	Time int // binding of the rule's temporal variable (if any)
	Body []ast.Fact
}

// factKey canonicalizes a fact for provenance lookup.
func factKey(f ast.Fact) string {
	k := f.Pred + "\x01"
	if f.Temporal {
		k += fmt.Sprintf("%d", f.Time)
	}
	return k + "\x01" + strings.Join(f.Args, "\x00")
}

// EnableProvenance turns on derivation recording. It must be called before
// the first EnsureWindow; recording costs one map entry per derived fact.
func (e *Evaluator) EnableProvenance() error {
	if e.evaluated >= 0 {
		return fmt.Errorf("engine: EnableProvenance must precede evaluation")
	}
	e.prov = make(map[string]*Derivation)
	return nil
}

// Derivation returns how the fact was first derived, or nil for database
// facts and unknown facts. Provenance must have been enabled.
func (e *Evaluator) Derivation(f ast.Fact) *Derivation {
	if e.prov == nil {
		return nil
	}
	return e.prov[factKey(f)]
}

// Explain renders the full derivation tree of a fact: each derived fact
// shows the rule instance that first produced it and, indented, the
// derivations of its body facts. The tree is finite because a fact's first
// derivation only uses facts inserted before it. maxDepth caps rendering
// for very deep chains (0 means unlimited).
func (e *Evaluator) Explain(f ast.Fact, maxDepth int) (string, error) {
	if e.prov == nil {
		return "", fmt.Errorf("engine: provenance not enabled")
	}
	if !e.store.Has(f) {
		return "", fmt.Errorf("engine: %s does not hold (within window %d)", f, e.evaluated)
	}
	var b strings.Builder
	e.explain(&b, f, "", maxDepth)
	return b.String(), nil
}

func (e *Evaluator) explain(b *strings.Builder, f ast.Fact, indent string, maxDepth int) {
	fmt.Fprintf(b, "%s%s", indent, f)
	d := e.prov[factKey(f)]
	if d == nil {
		b.WriteString("   [database fact]\n")
		return
	}
	fmt.Fprintf(b, "   [by %s", d.Rule)
	if tv := d.Rule.TemporalVars(); len(tv) == 1 {
		fmt.Fprintf(b, " with %s=%d", tv[0], d.Time)
	}
	b.WriteString("]\n")
	if maxDepth == 1 {
		fmt.Fprintf(b, "%s  ...\n", indent)
		return
	}
	next := maxDepth
	if next > 0 {
		next--
	}
	for _, bf := range d.Body {
		e.explain(b, bf, indent+"  ", next)
	}
}
