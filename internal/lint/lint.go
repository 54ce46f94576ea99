// Package lint is the Tier-A static analyzer for TDD programs: a set of
// dataflow passes over the rule dependency graph that produce coded,
// positioned, severity-ranked diagnostics. Where internal/classify answers
// yes/no ("is this rule set multi-separable?"), lint explains ("rule 3 at
// line 7 is recursive but neither time-only nor data-only") and finds dead
// weight (unreachable rules, duplicate rules, rules whose head can never
// fire in the certified model).
//
// Diagnostic codes and the paper results they lean on:
//
//	TDL001 undefined-predicate  body predicate never derived, no facts
//	TDL002 unused-predicate     database predicate no rule consumes
//	TDL003 unreachable-rule     no derivation path from the EDB (delete-safe)
//	TDL004 never-fires          body unsatisfiable at every T of the
//	                            certified model — sound by I-periodicity,
//	                            Theorem 6.1 (delete-safe)
//	TDL005 duplicate-rule       alpha-equivalent to an earlier rule
//	                            (delete-safe)
//	TDL006 shiftable-rule       all temporal depths share a positive offset
//	TDL010 not-multi-separable  near-miss explanation (Theorems 6.3–6.5)
//	TDL011 not-inflationary     Theorem 5.2 witness predicate
//	TDL012 mutual-recursion     SCC breaking multi-separability
//	TDL201 irrelevant-rule      rule cannot influence any exported
//	                            predicate (tddlint:export directives, or
//	                            the inferred dependency-graph tops)
//	TDL202 dead-component       a whole SCC is base-unreachable — the
//	                            component view of the per-rule TDL003s
//	TDL203 unused-suppression   a tddlint:ignore marker silenced nothing
//	TDL100 parse-error          unit source does not parse
//	TDL101 not-range-restricted (Section 3.3)
//	TDL102 not-semi-normal      more than one temporal variable
//	TDL103 not-forward          body literal deeper than the head
//	TDL104 ground-temporal-term ground facts belong in the database
//	TDL105 sort-conflict        variable both temporal and non-temporal
//	TDL106 invalid-program      any other validity failure
//
// A diagnostic marked DeleteSafe certifies that removing the flagged rule
// leaves the least model, the certified period, and therefore every query
// answer bit-identical; the differential test in soundness_test.go checks
// exactly that over a randgen battery.
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"tdd/internal/ast"
	"tdd/internal/classify"
	"tdd/internal/period"
	"tdd/internal/progan"
	"tdd/internal/spec"
)

// Severity ranks a diagnostic. Errors make the program unusable (it will
// not load), warnings flag defects worth fixing, infos explain properties.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its lowercase name so the JSON shape
// is self-describing for clients.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the names produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding: a stable code, a severity, a source position
// (zero when unknown), and a human message. Rule-level findings carry the
// rendered rule and its index into Program.Rules; predicate-level findings
// carry the predicate name. Theorem anchors the finding in the paper (or
// names the engine invariant it protects).
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Message  string   `json:"message"`
	Rule     string   `json:"rule,omitempty"`
	RuleIdx  int      `json:"rule_index"` // -1 when not about a single rule
	Pred     string   `json:"pred,omitempty"`
	Theorem  string   `json:"theorem,omitempty"`

	// DeleteSafe certifies the flagged rule can be removed without
	// changing the least model, the certified period, or any answer.
	DeleteSafe bool `json:"delete_safe,omitempty"`
}

// String renders the diagnostic in the file:line:col compiler convention
// (without the file, which only the caller knows).
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "%d:%d: ", d.Line, d.Col)
	}
	fmt.Fprintf(&b, "%s %s: %s", d.Severity, d.Code, d.Message)
	return b.String()
}

// Result is a lint run's findings plus a count of findings silenced by
// inline "tddlint:ignore" comments.
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Suppressed  int          `json:"suppressed,omitempty"`
}

// Counts tallies the result by severity.
func (r Result) Counts() (errors, warnings, infos int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		default:
			infos++
		}
	}
	return errors, warnings, infos
}

// Warnings returns the number of findings at warning severity or above —
// the number tddserve exposes as its lint_warnings gauge.
func (r Result) Warnings() int {
	e, w, _ := r.Counts()
	return e + w
}

// Format renders the result as human text, one diagnostic per line,
// prefixed with name (a file name or program id) when non-empty.
func (r Result) Format(name string) string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		if name != "" {
			b.WriteString(name)
			b.WriteByte(':')
		}
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DeleteSafeRules returns the distinct indices of rules carrying at least
// one delete-safe diagnostic, sorted.
func (r Result) DeleteSafeRules() []int {
	seen := make(map[int]bool)
	for _, d := range r.Diagnostics {
		if d.DeleteSafe && d.RuleIdx >= 0 {
			seen[d.RuleIdx] = true
		}
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Options tunes a lint run.
type Options struct {
	// Source is the raw unit text the program was parsed from; when set,
	// inline "% tddlint:ignore CODE" comments suppress findings on their
	// own or the following line.
	Source string

	// Spec is an already-certified specification of (program, database)
	// whose evaluator's firing counts decide never-fires; when nil and a
	// database is present, Run certifies one itself (bounded by
	// MaxWindow).
	Spec *spec.Spec

	// MaxWindow bounds the certification window when Run computes its own
	// specification. 0 means a default of 1024 states.
	MaxWindow int
}

const defaultMaxWindow = 1024

// Rules is the half of a lint run that reads the rule set alone: the
// classification report (Theorems 5.2 and 6.3–6.5) and the findings of
// the validity, duplicate, shiftable and near-miss passes. None of it
// depends on the database, so a program computes it once (AnalyzeRules)
// and every snapshot of the program shares it; Check adds the passes
// that read the database. A Rules is immutable and safe to share.
type Rules struct {
	prog   *ast.Program
	report classify.Report
	// valid gates the passes that need a well-formed program.
	valid bool
	diags []Diagnostic
}

// AnalyzeRules runs the rules-only passes over prog (nil lints nothing).
func AnalyzeRules(prog *ast.Program) *Rules {
	r := &Rules{prog: prog, valid: true}
	if prog == nil {
		return r
	}
	r.diags = checkValidity(prog, &r.valid)
	r.diags = append(r.diags, checkDuplicates(prog)...)
	r.diags = append(r.diags, checkShiftable(prog)...)
	r.report = classify.Analyze(prog.Clone(), classify.AnalyzeOptions{})
	if r.valid {
		r.diags = append(r.diags, checkNearMiss(prog, r.report)...)
	}
	return r
}

// Report is the rule set's classification: inflationary, multi-separable,
// tractable.
func (r *Rules) Report() classify.Report { return r.report }

// Run lints a program against an optional database. It never fails: every
// problem it can detect becomes a diagnostic, and passes whose
// preconditions are missing (no database, no certifiable period) are
// skipped silently. Diagnostics come back sorted by position, then code.
func Run(prog *ast.Program, db *ast.Database, opts Options) Result {
	return Check(AnalyzeRules(prog), db, opts)
}

// Check lints one snapshot of a program: the passes that read the
// database (reach, never-fires, relevance) run on db, and their findings
// join the precomputed rule analysis. Never-fires reads the per-rule
// firing counts of opts.Spec's evaluator and writes nothing to it, so
// Check may run beside any other reader of a certified evaluator. Only
// db's signatures are read, unless opts.Spec is nil: then never-fires
// certifies db's facts itself.
func Check(rules *Rules, db *ast.Database, opts Options) Result {
	if opts.MaxWindow <= 0 {
		opts.MaxWindow = defaultMaxWindow
	}
	var ds []Diagnostic
	if prog := rules.prog; prog != nil {
		ds = append(ds, rules.diags...)
		rep := progan.Analyze(prog, db)
		reach := checkReach(rep, db)
		ds = append(ds, reach...)
		if rules.valid {
			// Rules the structural pass already proved unreachable are
			// skipped by the semantic check: one finding per dead rule.
			skip := make(map[int]bool)
			for _, d := range reach {
				if d.Code == "TDL003" {
					skip[d.RuleIdx] = true
				}
			}
			ds = append(ds, checkNeverFires(prog, db, opts, skip)...)
			ds = append(ds, checkRelevance(rep, opts.Source)...)
		}
		guardDeleteSafety(prog, ds)
	}
	sortDiagnostics(ds)
	res := Result{Diagnostics: ds}
	if opts.Source != "" {
		res = suppress(res, opts.Source, true)
	}
	if res.Diagnostics == nil {
		res.Diagnostics = []Diagnostic{}
	}
	return res
}

// sortDiagnostics orders findings by source position, then code, then
// rule index, so output is deterministic and reads top-to-bottom.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.RuleIdx < b.RuleIdx
	})
}

// guardDeleteSafety clears the DeleteSafe flag on any flagged rule whose
// removal would change the program's certification parameters — its
// lookback g (Section 3.2's block size) or maximum head depth — even
// though the least model itself is unchanged. Period detection scans
// state blocks of size g, so a different g could certify a different
// (base, period) pair for the identical model; keeping such rules out of
// the delete set is what lets the differential soundness test demand the
// period stay bit-identical.
func guardDeleteSafety(prog *ast.Program, ds []Diagnostic) {
	drop := make(map[int]bool)
	for _, d := range ds {
		if d.DeleteSafe && d.RuleIdx >= 0 {
			drop[d.RuleIdx] = true
		}
	}
	if len(drop) == 0 {
		return
	}
	g, h := period.Lookback(prog), period.MaxHeadDepth(prog)
	for {
		kept := &ast.Program{Rules: make([]ast.Rule, 0, len(prog.Rules))}
		for i, r := range prog.Rules {
			if !drop[i] {
				kept.Rules = append(kept.Rules, r)
			}
		}
		if period.Lookback(kept) == g && period.MaxHeadDepth(kept) == h {
			break
		}
		// Un-drop the flagged rule with the deepest head until the
		// parameters are restored; its warning stands, only the
		// delete-safety claim is withdrawn. Ties go to the lowest rule
		// index, so the flags are the same on every run.
		worst, worstDepth := -1, -1
		for i, r := range prog.Rules {
			if !drop[i] {
				continue
			}
			if d := headDepthOf(r); d > worstDepth {
				worst, worstDepth = i, d
			}
		}
		delete(drop, worst)
		if len(drop) == 0 {
			break
		}
	}
	for i := range ds {
		if ds[i].DeleteSafe && ds[i].RuleIdx >= 0 && !drop[ds[i].RuleIdx] {
			ds[i].DeleteSafe = false
		}
	}
}

// headDepthOf is the shift-normalized head depth of a rule (0 for rules
// with a non-temporal or ground head).
func headDepthOf(r ast.Rule) int {
	if r.MinDepth() < 0 {
		return 0
	}
	s := r.ShiftNormalize()
	if s.Head.Time == nil || s.Head.Time.Ground() {
		return 0
	}
	return s.Head.Time.Depth
}
