package parser

import (
	"sort"
	"strings"

	"tdd/internal/ast"
)

// Render renders rules and facts (either may be nil) as one source text
// that parses back to the same clauses with the same predicate signatures.
// The plain rendering leaves sorts to inference, which a rendering out of
// context can get wrong: r(T) :- p(T). says nothing temporal without p(3),
// and score(10, john) reads as temporal without @nontemporal score. So the
// text is reparsed, and a @temporal or @nontemporal directive is prefixed
// for exactly the predicates whose signature came back different — none
// for a source that already round-trips. Should forcing those sorts shift
// the inference of another predicate, every predicate gets a directive.
func Render(prog *ast.Program, db *ast.Database) string {
	var b strings.Builder
	want := make(map[string]ast.PredInfo)
	if prog != nil {
		b.WriteString(prog.String())
		for name, pi := range prog.Preds {
			want[name] = pi
		}
	}
	if db != nil {
		b.WriteString(db.String())
		for name, pi := range db.Preds {
			want[name] = pi
		}
	}
	plain := b.String()
	wrong := missorted(plain, want)
	if len(wrong) == 0 {
		return plain
	}
	if src := directives(wrong, want) + plain; len(missorted(src, want)) == 0 {
		return src
	}
	all := make([]string, 0, len(want))
	for name := range want {
		all = append(all, name)
	}
	sort.Strings(all)
	return directives(all, want) + plain
}

// missorted lists, sorted, the predicates of want whose signature src does
// not parse back to — all of them when src does not parse.
func missorted(src string, want map[string]ast.PredInfo) []string {
	prog, db, err := ParseUnit(src)
	var out []string
	for name, pi := range want {
		got, ok := ast.PredInfo{}, false
		if err == nil {
			if got, ok = prog.Preds[name]; !ok {
				got, ok = db.Preds[name]
			}
		}
		if !ok || got.Temporal != pi.Temporal || got.Arity != pi.Arity {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func directives(names []string, sorts map[string]ast.PredInfo) string {
	var b strings.Builder
	for _, name := range names {
		if sorts[name].Temporal {
			b.WriteString("@temporal " + name + ".\n")
		} else {
			b.WriteString("@nontemporal " + name + ".\n")
		}
	}
	return b.String()
}
