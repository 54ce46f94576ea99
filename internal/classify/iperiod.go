package classify

import (
	"fmt"
	"runtime"
	"sync"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/period"
)

// IPeriodOptions bounds the Theorem 6.3 construction.
type IPeriodOptions struct {
	// MaxAtoms caps the enumerated atom space; the construction runs
	// 2^|atoms| skeleton simulations. Default 16.
	MaxAtoms int
	// MaxWindow bounds each skeleton simulation's evaluation window.
	// Default 1 << 16.
	MaxWindow int
}

func (o *IPeriodOptions) withDefaults() IPeriodOptions {
	out := IPeriodOptions{MaxAtoms: 16, MaxWindow: 1 << 16}
	if o != nil {
		if o.MaxAtoms > 0 {
			out.MaxAtoms = o.MaxAtoms
		}
		if o.MaxWindow > 0 {
			out.MaxWindow = o.MaxWindow
		}
	}
	return out
}

// IPeriod computes a database-independent period (an I-period, Section 6)
// of a multi-separable rule set, following the proof of Theorem 6.3
// generalized to unrestricted arities as the paper sketches (the
// equivalence between constants becomes an equivalence between constant
// vectors): time-only rules are first brought to reduced form; then every
// truth assignment over the ground atoms built from a small fresh universe
// (one constant per distinct rule variable) is simulated as a skeleton
// database, and the per-skeleton periods are combined as
// (max base, lcm of periods).
//
// The returned Period has a database-relative base: for a database with
// maximum temporal depth c, (c + Base, P) is a period of the least model,
// matching the paper's (k - c, p) convention.
//
// The rules must be constant-free (as the paper assumes throughout
// Section 6); the construction errors out otherwise, as it does for
// non-multi-separable inputs or atom spaces larger than MaxAtoms.
func IPeriod(p *ast.Program, opts *IPeriodOptions) (period.Period, error) {
	o := opts.withDefaults()
	if ok, reason := MultiSeparable(p); !ok {
		return period.Period{}, fmt.Errorf("classify: not multi-separable: %s", reason)
	}
	if pred, c, found := ruleConstant(p); found {
		return period.Period{}, fmt.Errorf("classify: the I-period construction requires constant-free rules; %s uses constant %q", pred, c)
	}
	reduced, err := ast.ReduceTimeOnly(p)
	if err != nil {
		return period.Period{}, err
	}
	if err := ast.ValidateProgram(reduced); err != nil {
		return period.Period{}, err
	}

	// Universe size: one constant per distinct non-temporal variable of
	// any rule, at least the maximum predicate arity.
	r := 1
	for _, rule := range p.Rules {
		seen := make(map[string]bool)
		for k := 0; k <= len(rule.Body); k++ {
			a := rule.AtomAt(k)
			for _, s := range a.Args {
				if s.IsVar {
					seen[s.Name] = true
				}
			}
		}
		if len(seen) > r {
			r = len(seen)
		}
	}
	for _, info := range p.Preds {
		if info.Arity > r {
			r = info.Arity
		}
	}
	universe := make([]string, r)
	for i := range universe {
		universe[i] = fmt.Sprintf("u$%d", i)
	}

	// Atom space over the original program's predicates (user databases
	// mention those, not the reduction's auxiliaries). As the proof of
	// Theorem 6.3 notes for semi-normal rules, skeleton databases must
	// contain tuples with temporal arguments 0..g-1 where g is the maximum
	// depth of a non-ground temporal term: a database can populate every
	// phase of a depth-g rule, which single time-0 seeds cannot reach.
	// That depth can exceed the certificate width period.Lookback: a
	// rule's shift-normalized depth drops its least body depth.
	g := 1
	for _, rule := range p.Rules {
		g = max(g, rule.MaxDepth())
	}
	var atoms []ast.Fact
	for _, name := range sortedPreds(p) {
		info := p.Preds[name]
		for _, tup := range tuples(universe, info.Arity) {
			if !info.Temporal {
				atoms = append(atoms, ast.Fact{Pred: name, Args: tup})
				continue
			}
			for t := 0; t < g; t++ {
				atoms = append(atoms, ast.Fact{Pred: name, Temporal: true, Time: t, Args: tup})
			}
		}
	}
	if len(atoms) > o.MaxAtoms {
		return period.Period{}, fmt.Errorf("classify: I-period atom space has %d atoms, above the cap %d (raise IPeriodOptions.MaxAtoms)", len(atoms), o.MaxAtoms)
	}

	// The 2^|atoms| skeleton simulations are independent; run them on a
	// worker pool. Combination (max base, lcm period) is associative and
	// commutative, so each worker folds locally and the results fold at
	// the end.
	nMasks := 1 << len(atoms)
	workers := runtime.GOMAXPROCS(0)
	if workers > nMasks {
		workers = nMasks
	}
	results := make(chan period.Period, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := period.Period{Base: 1, P: 1}
			for mask := w; mask < nMasks; mask += workers {
				var facts []ast.Fact
				for i, f := range atoms {
					if mask&(1<<i) != 0 {
						facts = append(facts, f)
					}
				}
				db, err := ast.NewDatabase(facts)
				if err != nil {
					errs <- err
					return
				}
				e, err := engine.New(reduced.Clone(), db)
				if err != nil {
					errs <- err
					return
				}
				pp, _, err := period.Detect(e, o.MaxWindow)
				if err != nil {
					errs <- fmt.Errorf("classify: skeleton %d: %w", mask, err)
					return
				}
				local, err = Combine(local, pp)
				if err != nil {
					errs <- err
					return
				}
			}
			results <- local
		}()
	}
	wg.Wait()
	close(results)
	close(errs)
	if err := <-errs; err != nil {
		return period.Period{}, err
	}
	combined := period.Period{Base: 1, P: 1}
	for local := range results {
		var err error
		combined, err = Combine(combined, local)
		if err != nil {
			return period.Period{}, err
		}
	}
	return combined, nil
}

// Combine merges two periods into one valid for the union of the model
// families: the base is the maximum, the period the least common multiple.
func Combine(a, b period.Period) (period.Period, error) {
	base := a.Base
	if b.Base > base {
		base = b.Base
	}
	l, err := lcm(a.P, b.P)
	if err != nil {
		return period.Period{}, err
	}
	return period.Period{Base: base, P: l}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) (int, error) {
	g := gcd(a, b)
	l := a / g
	if l > 0 && b > (1<<40)/l {
		return 0, fmt.Errorf("classify: period lcm overflow (%d, %d)", a, b)
	}
	return l * b, nil
}

// sortedPreds returns the program's predicate names in sorted order.
func sortedPreds(p *ast.Program) []string {
	out := make([]string, 0, len(p.Preds))
	for name := range p.Preds {
		out = append(out, name)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// tuples enumerates universe^arity (a single empty tuple for arity 0).
func tuples(universe []string, arity int) [][]string {
	if arity == 0 {
		return [][]string{nil}
	}
	sub := tuples(universe, arity-1)
	var out [][]string
	for _, s := range sub {
		for _, u := range universe {
			tup := make([]string, 0, arity)
			tup = append(tup, s...)
			tup = append(tup, u)
			out = append(out, tup)
		}
	}
	return out
}

// VerifyIPeriod checks empirically that ip (database-relative) is a period
// of the least model of p over the given database: it detects the minimal
// period of that model and checks compatibility (the detected period must
// divide ip.P and start no later than c + ip.Base).
func VerifyIPeriod(p *ast.Program, db *ast.Database, ip period.Period, maxWindow int) error {
	e, err := engine.New(p.Clone(), db)
	if err != nil {
		return err
	}
	min, _, err := period.Detect(e, maxWindow)
	if err != nil {
		return err
	}
	c := db.MaxDepth()
	if ip.P%min.P != 0 {
		return fmt.Errorf("classify: detected period %v does not divide claimed I-period %v", min, ip)
	}
	if min.Base > c+ip.Base {
		return fmt.Errorf("classify: detected base %d exceeds claimed %d (c=%d + base=%d)", min.Base, c+ip.Base, c, ip.Base)
	}
	return nil
}
