// Package period detects the periodic structure of least models of
// temporal deductive databases.
//
// Theorem 3.1 (Chomicki & Imielinski 1988): the least model M of Z ∧ D is
// periodic — there are b and p with M[t] = M[t+p] for all t >= b, where b+p
// is at most exponential in the size of D. This package finds the minimal
// such (b, p) by evaluating the model over a growing window and certifying
// a candidate period with the continuation argument for forward rule sets:
// if the G states starting at b equal the G states starting at b+p (with b
// beyond every database fact and G the model's lookback), then the
// state-transition function forces M[t] = M[t+p] for every t >= b.
//
// The scan compares states by the class the evaluator's store assigned
// each one as it closed: one integer comparison per pair, exact. A hinted
// search reads only a few states, and compares their fingerprints, then
// confirms its winner exactly (certify).
package period

import (
	"errors"
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/engine"
)

// Period is a verified period: M[t] = M[t+p] for all t >= Base.
type Period struct {
	Base int // absolute time from which states repeat
	P    int // period length, >= 1
}

func (p Period) String() string { return fmt.Sprintf("(b=%d, p=%d)", p.Base, p.P) }

// Canonical returns the canonical representative of time t under the
// period: t itself if t < Base+P, otherwise Base + (t-Base) mod P. This is
// the normal form of the rewrite system W of the relational specification.
func (p Period) Canonical(t int) int {
	if t < p.Base+p.P {
		return t
	}
	return p.Base + (t-p.Base)%p.P
}

// Stats reports the work done by Detect.
type Stats struct {
	Window int // final window size used
	Grown  int // number of window growth steps
}

// ErrWindowExceeded is returned when no period was certified within the
// caller's window budget. For tractable rule classes this indicates the
// budget is too small; for adversarial programs (Theorem 3.3) the period
// itself may be exponential in the database.
var ErrWindowExceeded = errors.New("period: no period certified within the window budget")

// Lookback returns G, the certificate width for the program: the maximum
// over (a) the temporal lookback of temporal-head rules and (b) the
// deepest body literal of non-temporal-head rules, unshifted, and at
// least 1. (b) keeps a certificate from missing non-temporal facts: such
// a rule is instantiated at every T >= 0 whose deepest literal lies in
// the window, and by periodicity its instantiations at T in [0, b+p)
// are all it has, so the window must reach b+p-1 plus that depth, which
// the evidence condition b+p+G <= m guarantees. Its shift-normalized
// spread is not enough: flag(X) :- q(T+9, X) spreads over one state but
// reads q from 9 on.
//
// Coverage lemma: a window certified at (b, p) holds every firing
// pattern of every rule, so a rule that never fired in it fires nowhere
// (lint's TDL004 rests on this). Take a temporal-head rule with head
// depth h and shallowest body depth d; the engine instantiates it at
// every T in [0, m-h]. An instance at T reads only states >= T+d, so when
// T >= p and T+d-p >= b it matches exactly when the instance at T-p does,
// and every pattern occurs at some T < max(b+p-d, p). The certificate
// has b+p+G <= m with G >= h-d (the shift-normalized head depth), and
// m-p+1 >= hmax >= h, so both bounds are <= m-h+1: every such T lies in
// the window. A non-temporal-head rule's patterns occur at T < b+p by
// the same shift, and (b) above puts its deepest literal at T+G <= m.
func Lookback(prog *ast.Program) int { return engine.Lookback(prog) }

// MaxHeadDepth returns the maximum (original, unshifted) temporal head
// depth over the program's rules. A rule contributes to states t >=
// its head depth only — its enabling time — so the state-transition
// function is time-invariant exactly from this point on, which the period
// certificate must respect.
func MaxHeadDepth(prog *ast.Program) int { return engine.MaxHeadDepth(prog) }

// Detect finds the minimal verified period of the least model of e's
// program and database, growing the evaluation window (doubling) until a
// certificate is found or the window would exceed maxWindow.
//
// Minimality: among all verified periods, the one with the smallest p and,
// for that p, the smallest base is returned.
//
// States are compared by the classes the store assigned them as they
// closed (engine.Evaluator.Classes): equal classes are exactly equal
// states, so the result is what comparing full states everywhere would
// give, at one integer comparison a pair.
func Detect(e *engine.Evaluator, maxWindow int) (Period, Stats, error) {
	return DetectFrom(e, maxWindow, 0)
}

// DetectFrom is Detect given a hint: a period p0 the model probably
// still has, such as the one certified before the last insert (hint 0
// means none). The period, the window e ends up evaluated to and the
// Stats are Detect's whatever the hint; a good one saves the scans.
// DetectFrom starts at the largest window of Detect's schedule that e
// has already evaluated, tries the divisors of p0 there in ascending
// order, then the full scan, and from there on follows the schedule as
// Detect does.
//
// Why that is Detect's answer. A certified (b, p) is a true period of
// the model. If p and q are eventual periods, so is gcd(p, q) (for t
// beyond both bases, step by +p and -q), so the minimal period p*
// divides every period, and its minimal base is no larger than any
// other period's. Hence p* certifies, with the same base, at every
// window at which any period certifies: at exactly the windows m >=
// max(b*+p*+G, p*+hmax-1), where b* is p*'s base beyond c. Detect
// therefore returns (b*, p*) at the first such window of its schedule,
// and evaluates nothing at the windows e already covers. A certified
// divisor d of p0 is a true period, so p* divides d and is a divisor of
// p0 that certifies too: the first divisor to certify is p*. If none
// does and the full scan fails as well, no smaller window of the
// schedule certifies either, and Detect would go on to the next window
// exactly as DetectFrom does.
func DetectFrom(e *engine.Evaluator, maxWindow, hint int) (Period, Stats, error) {
	c, G, hmax := e.DatabaseDepth(), e.Lookback(), e.MaxHeadDepth()
	m0 := max(2*c+4*G+4, 2*hmax+4, 16)
	var stats Stats
	m := m0
	if hint > 0 {
		for m < maxWindow && min(2*m, maxWindow) <= e.Window() {
			m *= 2
			stats.Grown++
		}
	}
	jumped := stats.Grown > 0
	st := e.Store()
	for {
		if m > maxWindow {
			m = maxWindow
		}
		e.EnsureWindow(m)
		stats.Window = m
		var p Period
		var ok bool
		if hint > 0 {
			// The divisors' runs read a few states each: fingerprints are
			// summed as needed, and nothing the size of the window is
			// allocated.
			approx := func(t1, t2 int) bool { return st.StateFingerprint(t1) == st.StateFingerprint(t2) }
			p, ok = certify(m, c, G, hmax, hint, approx, st.StateEqual)
		}
		if !ok {
			// The full scan may revisit every state many times; it
			// compares the states' classes, which are exact. It also
			// decides a window whose hinted winner certify refuted: if a
			// divisor of the hint certifies there, the minimal period is
			// that divisor (the gcd argument above), and the scan finds
			// it.
			class := e.Classes()
			p, ok = scan(m, c, G, hmax, 0, func(t1, t2 int) bool { return class[t1] == class[t2] })
		}
		if ok {
			if jumped {
				// Detect's window: the first of its schedule that certifies.
				need := max(p.Base+p.P+G, p.P+hmax-1)
				stats.Window, stats.Grown = min(m0, maxWindow), 0
				for stats.Window < need {
					stats.Window = min(2*stats.Window, maxWindow)
					stats.Grown++
				}
			}
			return p, stats, nil
		}
		if m >= maxWindow {
			return Period{}, stats, fmt.Errorf("%w (window %d, lookback %d, database depth %d)", ErrWindowExceeded, maxWindow, G, c)
		}
		m *= 2
		stats.Grown++
		hint = 0
	}
}

// certify finds the minimal certified period of the window 0..m under
// the exact state equality — among the divisors of div when div > 0 —
// for the hinted search, which reads too few states to be worth
// classing, paying for exactness only where it matters: the
// scan runs on approx, an equality that may also hold for unequal states
// (fingerprints: equal states always have equal fingerprints) but never
// fails for equal ones, and the G certificate states of its winner are
// then compared exactly. When that confirmation fails, certify reports
// no period, and the caller decides the window with its exact scan.
//
// Why a confirmed winner is the exact one. approx holds wherever exact
// does, so for every p the run of matches the scan walks down from m-p is
// at least as long under approx: the approx winner (p', b') has p' <= p and,
// at equal p, b' <= b of the exact winner — and no winner under approx
// means none under exact. If the certificate states of (b', p') are
// truly equal, the continuation argument makes M[t] = M[t+p'] for every
// t >= b', so the exact scan succeeds at p' with a base <= b' (hence
// p = p'), and its run cannot extend below b' either: the approx run
// stopped there on a mismatch, which is a true one. The two winners
// coincide. Restricting both scans to the same candidates changes none of
// this.
func certify(m, c, G, hmax, div int, approx, exact func(t1, t2 int) bool) (Period, bool) {
	p, ok := scan(m, c, G, hmax, div, approx)
	if !ok {
		return Period{}, false
	}
	for t := p.Base; t < p.Base+G; t++ {
		if !exact(t, t+p.P) {
			return Period{}, false
		}
	}
	return p, true
}

// scan searches the states 0..m for the minimal certified period, among
// the divisors of div when div > 0. eq reports whether the states at two
// time points are equal; c is the database's maximum temporal depth; G
// the certificate width; hmax the maximum rule head depth.
//
// A pair (b, p) is certified when b > c, eq(t, t+p) for every t in
// [b, m-p], the evidence window is wide enough (b + p + G <= m), and the
// observed matches cover every instant at which a rule can still become
// enabled (m - p + 1 >= hmax): beyond the window the continuation
// induction computes state t from the G previous states, and the
// state-transition function is the same at t and t+p exactly when both
// are beyond the database horizon and every rule's enabling time.
func scan(m, c, G, hmax, div int, eq func(t1, t2 int) bool) (Period, bool) {
	for p := 1; c+1+p+G <= m; p++ {
		if m-p+1 < hmax {
			// A rule with head depth hmax could first fire beyond the
			// observed matches; no certificate possible at this p.
			break
		}
		if div > 0 && div%p != 0 {
			continue
		}
		// Find the minimal b >= c+1 with eq(t, t+p) for all t in [b, m-p].
		b := -1
		for t := m - p; t >= c+1; t-- {
			if !eq(t, t+p) {
				break
			}
			b = t
		}
		if b < 0 {
			continue
		}
		if b+p+G > m {
			continue // not enough observed evidence
		}
		return Period{Base: b, P: p}, true
	}
	return Period{}, false
}
