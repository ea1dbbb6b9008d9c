// Package allowcheck is an obdcheck fixture: the suppressions themselves
// are checked — unknown rules, missing reasons, retired spellings and
// misplaced allows never silently suppress a finding.
package allowcheck

import "time"

// unknownRule names a rule that does not exist: the allow is inert and
// reported, and the timenow finding still surfaces.
func unknownRule() time.Time {
	return time.Now() //obdcheck:allow nosuchrule — typo fixture
}

// missingReason omits the mandatory reason: inert and reported.
func missingReason() time.Time {
	return time.Now() //obdcheck:allow timenow
}

// legacy uses the retired detlint spelling, which is no longer an
// annotation at all: the timenow finding surfaces.
func legacy() time.Time {
	return time.Now() //detlint:allow timenow — migrated branches keep vetting
}

// wrongLine puts the allow two lines above the finding, where it
// suppresses nothing.
func wrongLine() time.Time {
	//obdcheck:allow timenow — too far from the call

	return time.Now()
}

// prevLine is the correct preceding-line form and passes.
func prevLine() time.Time {
	//obdcheck:allow timenow — fixture: annotated read passes
	return time.Now()
}
