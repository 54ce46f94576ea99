package main

import (
	"fmt"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/core"
	"tdd/internal/parser"
	"tdd/internal/query"
	"tdd/internal/spec"
)

// warmQuery is one entry of the fixed query list with its layer-metric
// class and its expected answer.
type warmQuery struct {
	probe
	class     string // query.<class>_us
	wantBool  bool
	wantCount int
	wantSum   int // sum of the temporal bindings: an order-free digest
}

// warmQueries builds the list over the ski model: one query per regime of
// the FO evaluator, from a single rewritten lookup to a full scan of the
// representatives nested under a scan of the constants.
func warmQueries(m skiModel) []warmQuery {
	a := m.resorts.name(0)
	return []warmQuery{
		{probe: probe{Query: fmt.Sprintf("plane(1000003, %s)", a)}, class: "ground"},
		{probe: probe{Query: fmt.Sprintf("exists T (plane(T, %s) & winter(T))", a)}, class: "exists"},
		{probe: probe{Query: fmt.Sprintf("exists T plane(T, %s)", m.resorts.constant("nowhere"))}, class: "exists"},
		{probe: probe{Query: "forall X (!resort(X) | exists T plane(T, X))"}, class: "forall"},
		{probe: probe{Query: "exists X (resort(X) & !exists T plane(T, X))"}, class: "forall"},
		{probe: probe{Query: "forall T (winter(T) | offseason(T))"}, class: "forall"},
		{probe: probe{Query: fmt.Sprintf("plane(T, %s)", a), Open: true}, class: "answers"},
		{probe: probe{Query: "plane(T, X)", Open: true, Limit: 16}, class: "answers"},
	}
}

func digest(ans []tdd.Answer) (count, sum int) {
	for _, a := range ans {
		for _, t := range a.Temporal {
			sum += t
		}
	}
	return len(ans), sum
}

// expectAll fills in the expected answers through the facade.
func expectAll(db *tdd.DB, qs []warmQuery) error {
	for i := range qs {
		q := &qs[i]
		if q.Open {
			ans, err := db.AnswersLimit(q.Query, q.Limit)
			if err != nil {
				return fmt.Errorf("%s: %w", q.Query, err)
			}
			q.wantCount, q.wantSum = digest(ans)
			continue
		}
		ok, err := db.Ask(q.Query)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Query, err)
		}
		q.wantBool = ok
	}
	return nil
}

func (q *warmQuery) checkBool(got bool) error {
	if got != q.wantBool {
		return mismatch(q.Query, got, q.wantBool)
	}
	return nil
}

func (q *warmQuery) checkAnswers(ans []tdd.Answer) error {
	if n, sum := digest(ans); n != q.wantCount || sum != q.wantSum {
		return mismatch(q.Query, [2]int{n, sum}, [2]int{q.wantCount, q.wantSum})
	}
	return nil
}

func probesOf(qs []warmQuery) []probe {
	ps := make([]probe, len(qs))
	for i, q := range qs {
		ps[i] = q.probe
	}
	return ps
}

// warmInst is a set-up of warm_query: the ski model certified once; an op
// is one pass over the query list. The engine does nothing here.
type warmInst struct {
	model   skiModel
	db      *tdd.DB
	queries []warmQuery
	g       goldenEntry

	// Staged pass: the same model behind the layer APIs.
	spec    *spec.Spec
	preds   map[string]ast.PredInfo
	answers int
}

func newWarm(seed int64) (instance, error) {
	w := &warmInst{model: skiInputs(skiParams, seed)}
	var err error
	if w.db, err = tdd.Open(w.model.rules, w.model.facts); err != nil {
		return nil, err
	}
	w.queries = warmQueries(w.model)
	if err := expectAll(w.db, w.queries); err != nil {
		return nil, err
	}
	if w.g, err = goldenOf(w.db, probesOf(w.queries)); err != nil {
		return nil, err
	}
	if err := crossCheckSpec(w.db, probesOf(w.queries)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *warmInst) op(_, _ int) error {
	for i := range w.queries {
		q := &w.queries[i]
		if q.Open {
			ans, err := w.db.AnswersLimit(q.Query, q.Limit)
			if err != nil {
				return err
			}
			if err := q.checkAnswers(ans); err != nil {
				return err
			}
			continue
		}
		ok, err := w.db.Ask(q.Query)
		if err != nil {
			return err
		}
		if err := q.checkBool(ok); err != nil {
			return err
		}
	}
	return nil
}

// certify builds the model behind the layer APIs (parser, core) and
// returns its specification and predicate signatures.
func certify(rules, facts string) (*core.BT, *spec.Spec, error) {
	prog, err := parser.ParseProgram(rules)
	if err != nil {
		return nil, nil, err
	}
	db, err := parser.ParseDatabase(facts)
	if err != nil {
		return nil, nil, err
	}
	bt, err := core.New(prog, db)
	if err != nil {
		return nil, nil, err
	}
	s, err := bt.Specification()
	return bt, s, err
}

func (w *warmInst) prepareStaged() error {
	bt, s, err := certify(w.model.rules, w.model.facts)
	if err != nil {
		return err
	}
	w.spec, w.preds = s, bt.Preds()
	return nil
}

func (w *warmInst) staged(rec *recorder, _, k int) error {
	root := rec.begin("op.warm", -1, k)
	defer rec.end(root)
	w.answers = 0
	for i := range w.queries {
		q := &w.queries[i]
		sp := rec.begin("parser.query", root, k)
		parsed, err := parser.ParseQuery(q.Query, w.preds)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("query."+q.class, root, k)
		if q.Open {
			ans, err := query.AnswersLimit(w.spec, parsed, q.Limit)
			rec.end(sp)
			if err != nil {
				return err
			}
			w.answers += len(ans)
			if err := q.checkAnswers(ans); err != nil {
				return err
			}
			continue
		}
		ok, err := query.Eval(w.spec, parsed)
		rec.end(sp)
		if err != nil {
			return err
		}
		if err := q.checkBool(ok); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmInst) layers() (map[string]float64, error) {
	out := map[string]float64{"query.answers_count": float64(w.answers)}
	if err := specProbe(w.spec, w.preds, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (w *warmInst) golden() goldenEntry { return w.g }

func (w *warmInst) close() {}
