package main

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Suppression annotations. The unified form is
//
//	//obdcheck:allow <rule>[,<rule>...] — <reason>
//
// on the same line as the finding or the line above. The reason is
// mandatory: an allow without one is itself reported (allowcheck), and
// does not suppress anything. No other spelling is recognized.

// allowEntry is one (annotation line, rule) suppression.
type allowEntry struct {
	file   string
	line   int
	rule   string
	reason string
	used   bool // suppressed at least one finding this run
}

// allowSet indexes the package's suppressions and accumulates the
// allowcheck findings discovered while parsing them.
type allowSet struct {
	entries []*allowEntry
	byLine  map[string]map[int][]*allowEntry
	// problems are allowcheck findings (unknown rule, missing reason)
	// recorded at parse time.
	problems []finding
}

// suppress reports whether a finding of rule at position is covered by an
// allow on the same or preceding line, marking the entry used.
func (s *allowSet) suppress(pos token.Position, rule string) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range lines[line] {
			if e.rule == rule {
				e.used = true
				return true
			}
		}
	}
	return false
}

// collectAllows parses every suppression annotation in the package.
func collectAllows(p *pass) *allowSet {
	s := &allowSet{byLine: make(map[string]map[int][]*allowEntry)}
	addProblem := func(pos token.Position, msg string) {
		s.problems = append(s.problems, finding{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule: ruleAllowCheck, Msg: msg,
		})
	}
	add := func(e *allowEntry) {
		s.entries = append(s.entries, e)
		lines := s.byLine[e.file]
		if lines == nil {
			lines = make(map[int][]*allowEntry)
			s.byLine[e.file] = lines
		}
		lines[e.line] = append(lines[e.line], e)
	}
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
				rest, ok := strings.CutPrefix(text, "obdcheck:allow")
				if !ok {
					continue
				}
				pos := p.fset.Position(cm.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					addProblem(pos, "suppression names no rule; write //obdcheck:allow <rule> — <reason>")
					continue
				}
				var rules []string
				badRule := false
				for _, r := range strings.Split(fields[0], ",") {
					r = strings.TrimSpace(r)
					if r == "" {
						continue
					}
					if !knownRule(r) {
						addProblem(pos, fmt.Sprintf("unknown rule %q in suppression (known rules: %s)", r, ruleNames()))
						badRule = true
						continue
					}
					rules = append(rules, r)
				}
				if badRule {
					continue // an allow naming an unknown rule is inert, never silently honored
				}
				reason := strings.TrimLeft(strings.TrimSpace(strings.Join(fields[1:], " ")), "—-– ")
				if reason == "" {
					addProblem(pos, "suppression carries no reason; write //obdcheck:allow <rule> — <reason>")
					continue // a reasonless allow is inert
				}
				for _, r := range rules {
					add(&allowEntry{file: pos.Filename, line: pos.Line, rule: r, reason: reason})
				}
			}
		}
	}
	return s
}

// reportAllowFindings emits the parse-time allowcheck findings and, with
// -staleallows, every allow that suppressed nothing (for enabled rules:
// an allow for a disabled rule cannot prove itself stale).
func (p *pass) reportAllowFindings() {
	p.findings = append(p.findings, p.allows.problems...)
	if !p.cfg.staleAllows {
		return
	}
	for _, e := range p.allows.entries {
		if e.used || !p.cfg.enabled[e.rule] {
			continue
		}
		p.findings = append(p.findings, finding{
			File: e.file, Line: e.line, Col: 1, Rule: ruleAllowCheck,
			Msg: fmt.Sprintf("stale suppression: no %s finding on this or the next line; delete the allow", e.rule),
		})
	}
}

// ruleNames returns the registered rule names, sorted, for error text.
func ruleNames() string {
	names := make([]string, 0, len(registry))
	for _, r := range registry {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
