package lint

import (
	"fmt"
	"sort"
	"strings"
)

// marker introduces an inline suppression inside a TDD comment:
//
//	% tddlint:ignore TDL003 TDL001   -- reason (prose is ignored)
//	p(T+1, X) :- q(T, X).            % tddlint:ignore TDL006
//
// A suppression silences the listed codes (or, with no codes, every code)
// for findings on its own line and on the following line, so it can sit
// beside the clause or on the line above it.
const marker = "tddlint:ignore"

// suppress filters res against the inline suppressions of src, counting
// what it removed. Findings without a position are never suppressed.
// With reportUnused set, markers that silenced nothing become TDL203
// info findings (emitted after filtering, so a suppression cannot hide
// its own unusedness) — the pass that keeps stale ignores from
// accumulating once the underlying finding is fixed.
func suppress(res Result, src string, reportUnused bool) Result {
	byLine := suppressions(src)
	if len(byLine) == 0 {
		return res
	}
	used := make(map[int]bool, len(byLine))
	kept := res.Diagnostics[:0]
	for _, d := range res.Diagnostics {
		if d.Line > 0 {
			if byLine[d.Line].covers(d.Code) {
				used[d.Line] = true
				res.Suppressed++
				continue
			}
			if byLine[d.Line-1].covers(d.Code) {
				used[d.Line-1] = true
				res.Suppressed++
				continue
			}
		}
		kept = append(kept, d)
	}
	res.Diagnostics = kept
	if reportUnused {
		for line, s := range byLine {
			if used[line] {
				continue
			}
			what := "any finding"
			if !s.all {
				codes := make([]string, 0, len(s.codes))
				for c := range s.codes {
					codes = append(codes, c)
				}
				sort.Strings(codes)
				what = strings.Join(codes, ", ")
			}
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Code:     "TDL203",
				Severity: Info,
				Line:     line,
				Col:      strings.Index(lineAt(src, line), marker) + 1,
				Message:  fmt.Sprintf("unused suppression: no %s finding on this or the next line", what),
				RuleIdx:  -1,
			})
		}
		sortDiagnostics(res.Diagnostics)
	}
	return res
}

// lineAt returns the 1-indexed line of src ("" out of range).
func lineAt(src string, line int) string {
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		return ""
	}
	return lines[line-1]
}

// suppression is the parsed form of one marker comment.
type suppression struct {
	all   bool
	codes map[string]bool
}

func (s suppression) covers(code string) bool { return s.all || s.codes[code] }

// directives scans raw source text for comment directives introduced by
// mark (marker, exportMarker). The lexer strips comments before the
// parser sees them, so this is a plain text scan: the marker counts only
// when a comment token ('%' or "//") precedes it on the line. fn gets the
// 1-indexed line and the words after the marker, split on space, tab and
// comma.
func directives(src, mark string, fn func(line int, words []string)) {
	for lineNo, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, mark)
		if idx < 0 {
			continue
		}
		pct := strings.Index(line, "%")
		slash := strings.Index(line, "//")
		if (pct < 0 || pct > idx) && (slash < 0 || slash > idx) {
			continue
		}
		fn(lineNo+1, strings.FieldsFunc(line[idx+len(mark):], func(r rune) bool { return r == ' ' || r == '\t' || r == ',' }))
	}
}

// suppressions reads the marker comments of src by line. The codes are
// the leading TDL-prefixed words; prose after them is ignored.
func suppressions(src string) map[int]suppression {
	var out map[int]suppression
	directives(src, marker, func(line int, words []string) {
		s := suppression{codes: make(map[string]bool)}
		for _, f := range words {
			if !strings.HasPrefix(f, "TDL") {
				break
			}
			s.codes[f] = true
		}
		if len(s.codes) == 0 {
			s.all = true
		}
		if out == nil {
			out = make(map[int]suppression)
		}
		out[line] = s
	})
	return out
}
