package gocheck

import (
	"go/ast"
	"strconv"
)

// DetFix bans wall-clock time and randomness in the evaluation and
// ingestion pipeline: the "time", "math/rand", "math/rand/v2", and
// "hash/maphash" imports are forbidden in internal/engine, internal/core, internal/inc,
// internal/wal, and internal/progan (whose analysis reports, slices, and
// bounds must be pure functions of the AST — they feed fingerprints and
// the planner). The engine's results, Stats, and derivation order
// are part of its contract (bit-identical across runs and clone
// lineages); a time.Now branch or rand tie-break would make the fixpoint's
// output depend on the machine, which the differential tests could only
// catch probabilistically. Banning the import bans every use. (Timing
// belongs in internal/obs and the server layer, which are free to import
// time.) hash/maphash is randomness by another name: its seeds are drawn
// per process, so a state fingerprint built on it would differ between
// two runs, between a leader and its follower, and between a WAL written
// yesterday and the process replaying it — the store's fingerprints are
// fixed functions of the hashed text instead (engine/symtab.go).
//
// internal/wal carries one scoped exemption, recorded in
// detFixWallClockAllowed rather than as inline suppressions: its
// background fsync ticker and snapshot-age stats are operational
// concerns that genuinely need the clock, and no model-visible value
// flows from it — the record format, hash chain, and recovery are
// clock-free. Randomness stays banned there; a random tie-break in
// recovery would be exactly the nondeterminism this check exists to
// stop.
var DetFix = &Analyzer{
	Name: "detfix",
	Doc:  "forbid time, math/rand and hash/maphash imports in fixpoint packages (determinism contract)",
	AppliesTo: func(path string) bool {
		return underTDD(path, "tdd/internal/engine", "tdd/internal/core", "tdd/internal/inc", "tdd/internal/wal", "tdd/internal/progan")
	},
	Run: runDetFix,
}

var detFixBanned = map[string]string{
	"time":         "wall-clock time",
	"math/rand":    "randomness",
	"math/rand/v2": "randomness",
	"hash/maphash": "a per-process hash seed",
}

// detFixWallClockAllowed lists packages exempt from the "time" ban (and
// only that ban). An explicit allowlist keeps the policy auditable in
// one place: adding a package here is a reviewed decision, unlike an
// inline suppression scattered through the code.
var detFixWallClockAllowed = map[string]bool{
	"tdd/internal/wal": true, // fsync ticker + snapshot age; no model-visible value derives from the clock
}

func runDetFix(p *Pass) {
	allowClock := detFixWallClockAllowed[p.ImportPath]
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			why, banned := detFixBanned[path]
			if !banned || (path == "time" && allowClock) {
				continue
			}
			p.Reportf(imp.Pos(), "import of %q brings %s into fixpoint code; the engine's output must be deterministic across runs and clone lineages", path, why)
		}
		// Belt and braces: a dot-import or renamed import still surfaces
		// as the path above, but also flag direct selector uses in case a
		// future refactor routes them through an allowed wrapper import.
		// The wall-clock allowlist exempts time selectors only — rand
		// selectors stay flagged even in allowlisted packages.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch id.Name {
			case "time":
				if !allowClock && sel.Sel.Name == "Now" {
					p.Reportf(sel.Pos(), "time.Now in fixpoint code; derive timestamps outside internal/engine and internal/core")
				}
			case "rand":
				p.Reportf(sel.Pos(), "rand.%s in fixpoint code; the engine's output must be deterministic across runs and clone lineages", sel.Sel.Name)
			}
			return true
		})
	}
}
