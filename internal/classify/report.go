package classify

import (
	"fmt"
	"strings"

	"tdd/internal/ast"
	"tdd/internal/period"
	"tdd/internal/progan"
)

// Report summarizes every classification the library can make about a rule
// set. Produced by Analyze; rendered by `tdd check`.
type Report struct {
	Valid      bool   // range-restricted, semi-normal, forward
	ValidError string // why not, when !Valid

	Normal              bool // every non-ground temporal term has depth <= 1
	MutualRecursionFree bool
	Levels              map[string]int // predicate levels (when mutual-recursion free)

	Inflationary    bool
	InflationaryErr string // the test's precondition failure, if any
	Witness         string // violating predicate when not inflationary

	MultiSeparable bool
	SeparableNote  string // why not multi-separable
	Separable      bool   // the stricter class of [7]

	IPeriod    *period.Period // database-relative; nil if not computed
	IPeriodErr string
}

// AnalyzeOptions tunes the expensive parts of Analyze.
type AnalyzeOptions struct {
	// ComputeIPeriod runs the Theorem 6.3 construction when the rule set
	// is multi-separable.
	ComputeIPeriod bool
	IPeriodOpts    *IPeriodOptions
}

// Analyze classifies a rule set along every axis of the paper.
func Analyze(p *ast.Program, opts AnalyzeOptions) Report {
	var rep Report
	if err := ast.ValidateProgram(p); err != nil {
		rep.ValidError = err.Error()
		return rep
	}
	rep.Valid = true
	rep.Normal = true
	for _, r := range p.Rules {
		if !r.Normal() {
			rep.Normal = false
			break
		}
	}
	g := progan.Analyze(p, nil)
	rep.Levels, rep.MutualRecursionFree = levels(g)
	infl, witness, err := InflationaryWitness(p)
	if err != nil {
		rep.InflationaryErr = err.Error()
	} else {
		rep.Inflationary = infl
		rep.Witness = witness
	}
	rep.MultiSeparable, rep.SeparableNote = multiSeparable(p, mutualSCCs(g))
	if rep.MultiSeparable {
		rep.Separable, _ = singleTemporalLiterals(p)
	}
	if opts.ComputeIPeriod && rep.MultiSeparable {
		ip, err := IPeriod(p, opts.IPeriodOpts)
		if err != nil {
			rep.IPeriodErr = err.Error()
		} else {
			rep.IPeriod = &ip
		}
	}
	return rep
}

// Tractable reports whether the analysis places the rule set in a class
// with guaranteed polynomial periodicity (Theorems 5.1 and 6.1): it is
// inflationary or multi-separable (hence I-periodic).
func (r Report) Tractable() bool {
	return r.Valid && (r.Inflationary || r.MultiSeparable)
}

// String renders the report for humans.
func (r Report) String() string {
	var b strings.Builder
	if !r.Valid {
		fmt.Fprintf(&b, "invalid: %s\n", r.ValidError)
		return b.String()
	}
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(&b, "valid (range-restricted, semi-normal, forward): yes\n")
	fmt.Fprintf(&b, "normal (temporal depth <= 1):                   %s\n", yn(r.Normal))
	fmt.Fprintf(&b, "mutual-recursion free:                          %s\n", yn(r.MutualRecursionFree))
	if r.InflationaryErr != "" {
		fmt.Fprintf(&b, "inflationary:                                   untestable (%s)\n", r.InflationaryErr)
	} else if r.Inflationary {
		fmt.Fprintf(&b, "inflationary:                                   yes\n")
	} else {
		fmt.Fprintf(&b, "inflationary:                                   no (witness: %s)\n", r.Witness)
	}
	if r.MultiSeparable {
		fmt.Fprintf(&b, "multi-separable:                                yes\n")
	} else {
		fmt.Fprintf(&b, "multi-separable:                                no (%s)\n", r.SeparableNote)
	}
	fmt.Fprintf(&b, "separable (in the stricter sense of [7]):       %s\n", yn(r.Separable))
	switch {
	case r.IPeriod != nil:
		fmt.Fprintf(&b, "I-period (database-relative):                   %v\n", *r.IPeriod)
	case r.IPeriodErr != "":
		fmt.Fprintf(&b, "I-period:                                       not computed (%s)\n", r.IPeriodErr)
	}
	fmt.Fprintf(&b, "tractable (polynomially periodic class):        %s\n", yn(r.Tractable()))
	return b.String()
}
