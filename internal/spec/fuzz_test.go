package spec

import (
	"encoding/json"
	"reflect"
	"testing"

	"tdd/internal/ast"
)

// listing reads a loaded specification the way ModelFingerprint reads a
// live one: the non-temporal part, then the state at every representative.
func listing(l *Loaded) []ast.Fact {
	out := l.Store().NonTemporalFacts()
	for t := 0; t < l.TimePoints(); t++ {
		out = append(out, l.Store().Snapshot(t)...)
	}
	return out
}

// FuzzSpecImport drives Import with arbitrary bytes. Import is the trust
// boundary of `tdd query -fromspec` and of a body fetched from GET
// /programs/{id}/spec, so it must never panic, and whatever it accepts
// must be a specification Export could have written: re-exporting the
// loaded form and importing that gives the same period, the same
// signatures, the same states and the same answer to every probe.
func FuzzSpecImport(f *testing.F) {
	for _, src := range []string{"even(T+2) :- even(T).\neven(0).", persistSki} {
		_, data := export(f, src)
		f.Add(data)
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"version": 1, "base": 1, "period": 2, "facts": [{"Pred": "p", "Temporal": true, "Time": -1}]}`))
	f.Add([]byte(`{"version": 1, "base": 0, "period": 1, "preds": {"r": {"Name": "r", "Arity": 1}}, "facts": [{"Pred": "r", "Args": [""]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Import(data)
		if err != nil {
			return
		}
		// The round trip lists every representative state; a forged period
		// of 2^60 is accepted (the store is sparse) but not worth walking.
		if l.TimePoints() > 1<<12 {
			return
		}
		facts := listing(l)
		again, err := json.Marshal(Portable{
			Version: portableVersion, Base: l.Period.Base, Period: l.Period.P,
			Preds: l.Preds(), Facts: facts,
		})
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Import(again)
		if err != nil {
			t.Fatalf("re-exported specification rejected: %v\n%s", err, again)
		}
		if l2.Period != l.Period {
			t.Fatalf("period %v became %v", l.Period, l2.Period)
		}
		if !reflect.DeepEqual(l2.Preds(), l.Preds()) {
			t.Fatalf("signatures changed: %v became %v", l.Preds(), l2.Preds())
		}
		if got := listing(l2); !reflect.DeepEqual(got, facts) {
			t.Fatalf("states changed:\n%v\nbecame\n%v", facts, got)
		}
		for _, f := range facts {
			if !l.HoldsFact(f) || !l2.HoldsFact(f) {
				t.Fatalf("listed fact %s does not hold (original %v, round trip %v)", f, l.HoldsFact(f), l2.HoldsFact(f))
			}
			// One period later the rewrite decides: both copies must agree,
			// and a fact past the base must recur.
			g := f
			g.Time += l.Period.P
			if a, b := l.HoldsFact(g), l2.HoldsFact(g); a != b || (f.Temporal && f.Time >= l.Period.Base && !a) {
				t.Fatalf("probe %s: original %v, round trip %v", g, a, b)
			}
		}
	})
}
