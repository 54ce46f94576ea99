package fddb

import (
	"fmt"

	"tdd/internal/ast"
)

// Store holds the facts of a functional least model restricted to a depth
// window: functional relations indexed by predicate and ground word, and
// plain relations by predicate.
type Store struct {
	fun   map[string]map[string]map[string][]string // pred -> word -> key -> tuple
	plain map[string]map[string][]string            // pred -> key -> tuple
	count int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		fun:   make(map[string]map[string]map[string][]string),
		plain: make(map[string]map[string][]string),
	}
}

func argsKey(args []string) string {
	out := ""
	for i, a := range args {
		if i > 0 {
			out += "\x00"
		}
		out += a
	}
	return out
}

// Insert adds a fact, reporting whether it was new.
func (s *Store) Insert(f Fact) bool {
	if f.Functional {
		byWord, ok := s.fun[f.Pred]
		if !ok {
			byWord = make(map[string]map[string][]string)
			s.fun[f.Pred] = byWord
		}
		rel, ok := byWord[f.Word]
		if !ok {
			rel = make(map[string][]string)
			byWord[f.Word] = rel
		}
		k := argsKey(f.Args)
		if _, dup := rel[k]; dup {
			return false
		}
		rel[k] = append([]string(nil), f.Args...)
		s.count++
		return true
	}
	rel, ok := s.plain[f.Pred]
	if !ok {
		rel = make(map[string][]string)
		s.plain[f.Pred] = rel
	}
	k := argsKey(f.Args)
	if _, dup := rel[k]; dup {
		return false
	}
	rel[k] = append([]string(nil), f.Args...)
	s.count++
	return true
}

// Has reports membership.
func (s *Store) Has(f Fact) bool {
	if f.Functional {
		_, ok := s.fun[f.Pred][f.Word][argsKey(f.Args)]
		return ok
	}
	_, ok := s.plain[f.Pred][argsKey(f.Args)]
	return ok
}

// Len returns the number of stored facts.
func (s *Store) Len() int { return s.count }

// FactsAtDepth returns the number of functional facts whose word has the
// given length — the per-level model size E10 charts.
func (s *Store) FactsAtDepth(depth int) int {
	n := 0
	for _, byWord := range s.fun {
		for w, rel := range byWord {
			if len(w) == depth {
				n += len(rel)
			}
		}
	}
	return n
}

// Evaluator computes the least model of a functional deductive database
// restricted to words of length <= depth. Sound and complete on that
// window for forward rule sets (facts at a word depend only on facts at
// words no longer than it).
type Evaluator struct {
	prog  *Program
	db    *Database
	store *Store
	depth int // evaluated depth; -1 initially
}

// NewEvaluator validates and prepares the FDDB.
func NewEvaluator(prog *Program, db *Database) (*Evaluator, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{prog: prog, db: db, store: NewStore(), depth: -1}
	for _, f := range db.Facts {
		e.store.Insert(f)
	}
	return e, nil
}

// Store exposes the fact store.
func (e *Evaluator) Store() *Store { return e.store }

// EnsureDepth evaluates the least model out to words of length m. The
// work — like the model itself — can be Θ(|Σ|^m); that is the paper's
// Section 7 point, not an implementation defect.
func (e *Evaluator) EnsureDepth(m int) {
	if m <= e.depth {
		return
	}
	for {
		changed := 0
		for L := 0; L <= m; L++ {
			changed += e.closeLength(L, m)
		}
		changed += e.evalPlainRules(m)
		if changed == 0 {
			break
		}
	}
	e.depth = m
}

// closeLength fixpoints all functional-head rules whose head word has
// length L.
func (e *Evaluator) closeLength(L, m int) int {
	added := 0
	for {
		n := 0
		for _, r := range e.prog.Rules {
			if r.Head.Fun == nil {
				continue
			}
			rest := L - len(r.Head.Fun.Prefix)
			if rest < 0 {
				continue
			}
			e.eachWord(rest, func(v string) {
				n += e.fire(r, v, true)
			})
		}
		added += n
		if n == 0 {
			return added
		}
	}
}

// evalPlainRules fixpoints rules with plain heads; their functional
// variable (if any) ranges over words keeping every body literal within
// the window.
func (e *Evaluator) evalPlainRules(m int) int {
	added := 0
	for {
		n := 0
		for _, r := range e.prog.Rules {
			if r.Head.Fun != nil {
				continue
			}
			maxBody := 0
			hasFun := false
			for _, a := range r.Body {
				if a.Fun != nil {
					hasFun = true
					if len(a.Fun.Prefix) > maxBody {
						maxBody = len(a.Fun.Prefix)
					}
				}
			}
			if !hasFun {
				n += e.fire(r, "", false)
				continue
			}
			for rest := 0; rest+maxBody <= m; rest++ {
				e.eachWord(rest, func(v string) {
					n += e.fire(r, v, true)
				})
			}
		}
		added += n
		if n == 0 {
			return added
		}
	}
}

// eachWord enumerates all words of the given length over the alphabet.
func (e *Evaluator) eachWord(length int, f func(string)) {
	var rec func(prefix string, k int)
	rec = func(prefix string, k int) {
		if k == 0 {
			f(prefix)
			return
		}
		for _, r := range e.prog.Alphabet {
			rec(prefix+string(r), k-1)
		}
	}
	rec("", length)
}

// fire joins the rule's body with the functional variable bound to v and
// inserts derivable heads. Returns the number of new facts.
func (e *Evaluator) fire(r Rule, v string, bound bool) int {
	bindings := make(map[string]string, 8)
	added := 0
	var rec func(i int)
	rec = func(i int) {
		if i == len(r.Body) {
			if e.store.Insert(e.instantiate(r.Head, v, bindings)) {
				added++
			}
			return
		}
		a := r.Body[i]
		var rel map[string][]string
		if a.Fun != nil {
			rel = e.store.fun[a.Pred][a.Fun.Prefix+v]
		} else {
			rel = e.store.plain[a.Pred]
		}
		for _, tup := range rel {
			if len(tup) != len(a.Args) {
				continue
			}
			var boundVars []string
			ok := true
			for j, s := range a.Args {
				if !s.IsVar {
					if s.Name != tup[j] {
						ok = false
						break
					}
					continue
				}
				if prev, have := bindings[s.Name]; have {
					if prev != tup[j] {
						ok = false
						break
					}
					continue
				}
				bindings[s.Name] = tup[j]
				boundVars = append(boundVars, s.Name)
			}
			if ok {
				rec(i + 1)
			}
			for _, name := range boundVars {
				delete(bindings, name)
			}
		}
	}
	rec(0)
	return added
}

func (e *Evaluator) instantiate(head Atom, v string, bindings map[string]string) Fact {
	f := Fact{Pred: head.Pred}
	if head.Fun != nil {
		f.Functional = true
		f.Word = head.Fun.Prefix + v
	}
	f.Args = make([]string, len(head.Args))
	for i, s := range head.Args {
		if s.IsVar {
			val, ok := bindings[s.Name]
			if !ok {
				panic(fmt.Sprintf("fddb: unbound head variable %s", s.Name))
			}
			f.Args[i] = val
			continue
		}
		f.Args[i] = s.Name
	}
	return f
}

// Holds answers a ground atomic query: the window needed is exactly the
// query's own depth, so yes-no query processing is decidable (if
// potentially exponential — PSPACE-hard already for TDDs, worse here).
func (e *Evaluator) Holds(f Fact) bool {
	if f.Functional {
		e.EnsureDepth(len(f.Word))
	} else if e.depth < 0 {
		e.EnsureDepth(0)
	}
	return e.store.Has(f)
}

// Var is a convenience for building rule atoms.
func Var(name string) ast.Symbol { return ast.Var(name) }

// Const is a convenience for building rule atoms.
func Const(name string) ast.Symbol { return ast.Const(name) }
