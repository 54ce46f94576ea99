package lint

import (
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/spec"
)

// checkNeverFires flags rules whose body is unsatisfiable at every time
// point of the least model (TDL004). The check is semantic, not syntactic:
// it joins the rule's body against the certified model's states for every
// ground time T in [0, base+period). By I-periodicity (Theorem 6.1 /
// Section 3.2), states repeat from base with period p, so a body that
// finds no match on those representatives finds no match at any T — the
// probe is a decision procedure, which is what makes the delete-safety
// claim sound.
//
// Preconditions: a database with facts and a certifiable period within
// opts.MaxWindow; the probe is skipped (no findings) otherwise, and also
// when base+period plus the rule depth span exceeds opts.ProbeBudget.
//
// Rules in skip, and rules fired marks as seen firing in a smaller model,
// are not probed; when that leaves nothing to probe, no model is built or
// grown. The returned set is fired plus the rules the probe saw fire (see
// Check).
func checkNeverFires(prog *ast.Program, db *ast.Database, opts Options, skip map[int]bool, fired []bool) ([]Diagnostic, []bool) {
	if db == nil || len(db.Facts) == 0 {
		return nil, fired
	}
	var probe []int
	for i, r := range prog.Rules {
		if !skip[i] && len(r.Body) > 0 && (i >= len(fired) || !fired[i]) {
			probe = append(probe, i)
		}
	}
	if len(probe) == 0 {
		return nil, fired
	}
	s := opts.Spec
	if s == nil {
		if db.CheckAgainst(prog) != nil {
			return nil, fired
		}
		e, err := engine.New(prog.Clone(), db.Clone())
		if err != nil {
			return nil, fired
		}
		s, err = spec.Compute(e, opts.MaxWindow)
		if err != nil {
			return nil, fired
		}
	}
	limit := s.Period.Base + s.Period.P
	span := 0
	for _, r := range prog.Rules {
		if d := r.MaxDepth(); d > span {
			span = d
		}
	}
	if limit+span > opts.ProbeBudget {
		return nil, fired
	}
	ev := s.Evaluator()
	ev.EnsureWindow(limit + span)
	p := newProber(ev.Store())

	var ds []Diagnostic
	var grown []bool // fired plus this probe's firings, copied on the first
	for _, i := range probe {
		r := prog.Rules[i]
		if p.canFire(r, limit) {
			if grown == nil {
				grown = make([]bool, len(prog.Rules))
				copy(grown, fired)
			}
			grown[i] = true
			continue
		}
		ds = append(ds, Diagnostic{
			Code:       "TDL004",
			Severity:   Warning,
			Line:       r.Pos.Line,
			Col:        r.Pos.Col,
			Message:    fmt.Sprintf("rule never fires: its body has no match at any time point of the least model (checked T in [0, %d), decisive by the certified period %s)", limit, s.Period),
			Rule:       r.String(),
			RuleIdx:    i,
			Theorem:    "Theorem 6.1 / Section 3.2 (periodicity makes the probe a decision procedure)",
			DeleteSafe: true,
		})
	}
	if grown != nil {
		fired = grown
	}
	return ds, fired
}

// prober joins rule bodies against a model store, with lazy per-state
// tuple indexes.
type prober struct {
	st       *engine.Store
	temporal map[int]map[string][][]string
	nt       map[string][][]string
}

func newProber(st *engine.Store) *prober {
	p := &prober{st: st, temporal: make(map[int]map[string][][]string), nt: make(map[string][][]string)}
	for _, f := range st.NonTemporalFacts() {
		p.nt[f.Pred] = append(p.nt[f.Pred], f.Args)
	}
	return p
}

// tuples returns the model's tuples for pred at time t (t < 0 selects the
// non-temporal relation).
func (p *prober) tuples(pred string, t int) [][]string {
	if t < 0 {
		return p.nt[pred]
	}
	byPred, ok := p.temporal[t]
	if !ok {
		byPred = make(map[string][][]string)
		for _, f := range p.st.Snapshot(t) {
			byPred[f.Pred] = append(byPred[f.Pred], f.Args)
		}
		p.temporal[t] = byPred
	}
	return byPred[pred]
}

// canFire reports whether the rule's body has at least one match with its
// temporal variable bound to some T in [0, limit). Rules without temporal
// literals are joined once against the non-temporal relations.
func (p *prober) canFire(r ast.Rule, limit int) bool {
	hasTemporal := false
	for _, a := range r.Body {
		if a.Time != nil {
			hasTemporal = true
			break
		}
	}
	if !hasTemporal {
		return p.join(r.Body, 0, make(map[string]string), -1)
	}
	for t := 0; t < limit; t++ {
		if p.join(r.Body, 0, make(map[string]string), t) {
			return true
		}
	}
	return false
}

// join is a backtracking nested-loop join over the body atoms: atom i's
// candidate tuples come from the state at T+depth (or the non-temporal
// relation), filtered through the variable bindings accumulated so far.
func (p *prober) join(body []ast.Atom, i int, env map[string]string, t int) bool {
	if i == len(body) {
		return true
	}
	a := body[i]
	at := -1
	if a.Time != nil {
		if a.Time.Ground() {
			at = a.Time.Depth
		} else {
			at = t + a.Time.Depth
		}
	}
	for _, tup := range p.tuples(a.Pred, at) {
		if len(tup) != len(a.Args) {
			continue
		}
		var bound []string
		ok := true
		for k, s := range a.Args {
			if !s.IsVar {
				if tup[k] != s.Name {
					ok = false
					break
				}
				continue
			}
			if v, have := env[s.Name]; have {
				if v != tup[k] {
					ok = false
					break
				}
				continue
			}
			env[s.Name] = tup[k]
			bound = append(bound, s.Name)
		}
		if ok && p.join(body, i+1, env, t) {
			return true
		}
		for _, name := range bound {
			delete(env, name)
		}
	}
	return false
}
