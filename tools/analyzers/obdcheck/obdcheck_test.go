package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// loadFixturePass parses and prepares one testdata/src package.
func loadFixturePass(t *testing.T, cfg *config, dir string) *pass {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info, pkg := typecheckLoose(fset, files, dir)
	if info == nil {
		t.Fatalf("fixture %s failed to typecheck entirely", dir)
	}
	p := newPass(cfg, fset, files, info, pkg, filepath.ToSlash(dir))
	p.prepare()
	return p
}

// runFixtureDirs analyzes the fixture packages together — the same
// cross-package facts fixpoint standalone mode runs — and returns the
// combined findings.
func runFixtureDirs(t *testing.T, cfg *config, dirs ...string) []finding {
	t.Helper()
	passes := make([]*pass, 0, len(dirs))
	for _, dir := range dirs {
		passes = append(passes, loadFixturePass(t, cfg, dir))
	}
	return analyzePackages(passes)
}

// runFixture analyzes one testdata/src package with the given config and
// returns its findings.
func runFixture(t *testing.T, cfg *config, dir string) []finding {
	t.Helper()
	return runFixtureDirs(t, cfg, dir)
}

// onlyRules returns a config with exactly the named rules enabled.
func onlyRules(names ...string) *config {
	cfg := defaultConfig()
	for _, r := range registry {
		cfg.enabled[r.Name] = false
	}
	for _, n := range names {
		cfg.enabled[n] = true
	}
	return cfg
}

// render prints findings one per line with basename-relative paths so the
// golden files do not depend on the checkout location.
func render(fs []finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d:%d: %s [%s]\n", filepath.Base(f.File), f.Line, f.Col, f.Msg, f.Rule)
	}
	return b.String()
}

// TestRuleGoldens runs each rule over its fixture package and compares
// against the golden file; regenerate with go test -run Goldens -update.
// The disabled subtest proves each fixture's findings come from the rule
// under test: with the rule off they must vanish.
func TestRuleGoldens(t *testing.T) {
	cases := []struct {
		rule  string
		name  string   // fixture/golden name; defaults to the rule
		dirs  []string // fixture dirs; defaults to testdata/src/<name>
		extra []string // companion rules the fixture needs enabled
	}{
		{rule: ruleRangeMap},
		{rule: ruleTimeNow},
		{rule: ruleRand},
		{rule: ruleEnumSwitch},
		{rule: rulePanicContract},
		{rule: rulePanicContract, name: "panicxpkg", dirs: []string{
			filepath.Join("testdata", "src", "panicxpkg", "inner"),
			filepath.Join("testdata", "src", "panicxpkg", "outer"),
		}},
		{rule: ruleSchedMisuse},
		{rule: ruleCtxFlow},
		{rule: ruleHotAlloc},
		{rule: ruleErrWrap},
		{rule: ruleFacadeSync},
		{rule: ruleAllowCheck, extra: []string{ruleTimeNow}},
	}
	for _, c := range cases {
		name := c.name
		if name == "" {
			name = c.rule
		}
		dirs := c.dirs
		if len(dirs) == 0 {
			dirs = []string{filepath.Join("testdata", "src", name)}
		}
		t.Run(name, func(t *testing.T) {
			cfg := onlyRules(append([]string{c.rule}, c.extra...)...)
			got := render(runFixtureDirs(t, cfg, dirs...))
			if got == "" {
				t.Fatalf("fixture %s produced no findings; the rule is dead", dirs[0])
			}
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}

			t.Run("disabled", func(t *testing.T) {
				off := onlyRules(c.extra...)
				for _, f := range runFixtureDirs(t, off, dirs...) {
					if f.Rule == c.rule {
						t.Errorf("disabled rule still reported: %s", f)
					}
				}
			})
		})
	}
}

// TestStaleAllows: with -staleallows, the wrong-line annotation in the
// allowcheck fixture (which suppresses nothing) is reported; without the
// flag it is not.
func TestStaleAllows(t *testing.T) {
	dir := filepath.Join("testdata", "src", "allowcheck")
	countStale := func(fs []finding) int {
		n := 0
		for _, f := range fs {
			if f.Rule == ruleAllowCheck && strings.Contains(f.Msg, "stale suppression") {
				n++
			}
		}
		return n
	}
	quiet := onlyRules(ruleAllowCheck, ruleTimeNow)
	if n := countStale(runFixture(t, quiet, dir)); n != 0 {
		t.Errorf("stale findings without -staleallows: %d", n)
	}
	loud := onlyRules(ruleAllowCheck, ruleTimeNow)
	loud.staleAllows = true
	stale := countStale(runFixture(t, loud, dir))
	if stale != 1 {
		t.Errorf("stale findings with -staleallows = %d, want 1 (the wrong-line allow)", stale)
	}
	// An allow for a disabled rule cannot prove itself stale: with timenow
	// off, every timenow allow suppresses nothing, yet none are reported.
	onlyAllow := onlyRules(ruleAllowCheck)
	onlyAllow.staleAllows = true
	if n := countStale(runFixture(t, onlyAllow, dir)); n != 0 {
		t.Errorf("allows for a disabled rule reported stale: %d", n)
	}
}

// TestSuppressionSemantics pins the individual suppression behaviors the
// allowcheck fixture encodes.
func TestSuppressionSemantics(t *testing.T) {
	dir := filepath.Join("testdata", "src", "allowcheck")
	fs := runFixture(t, onlyRules(ruleAllowCheck, ruleTimeNow), dir)
	var timenowLines []int
	msgs := make(map[string]bool)
	for _, f := range fs {
		if f.Rule == ruleTimeNow {
			timenowLines = append(timenowLines, f.Line)
		}
		msgs[f.Msg] = true
	}
	// unknownRule (line 11), missingReason (line 16), legacy (line 22,
	// the retired //detlint:allow spelling) and wrongLine (line 30) keep
	// their timenow findings; only prevLine is suppressed.
	if want := []int{11, 16, 22, 30}; fmt.Sprint(timenowLines) != fmt.Sprint(want) {
		t.Errorf("unsuppressed timenow findings at lines %v, want %v", timenowLines, want)
	}
	wantSubstrings := []string{
		`unknown rule "nosuchrule"`,
		"suppression carries no reason",
	}
	for _, sub := range wantSubstrings {
		found := false
		for m := range msgs {
			if strings.Contains(m, sub) {
				found = true
			}
		}
		if !found {
			t.Errorf("no allowcheck finding containing %q", sub)
		}
	}
}

// TestPanicExempt: the paniccontract fixture reports nothing when its
// package-path segment is exempted.
func TestPanicExempt(t *testing.T) {
	dir := filepath.Join("testdata", "src", "paniccontract")
	cfg := onlyRules(rulePanicContract)
	cfg.panicExempt = []string{"paniccontract"}
	if fs := runFixture(t, cfg, dir); len(fs) != 0 {
		t.Errorf("exempt package still reported: %v", fs)
	}
}

// TestBaselineRoundTrip: a written baseline swallows exactly the recorded
// findings and nothing more.
func TestBaselineRoundTrip(t *testing.T) {
	dir := filepath.Join("testdata", "src", "rangemap")
	fs := runFixture(t, onlyRules(ruleRangeMap), dir)
	if len(fs) == 0 {
		t.Fatal("fixture produced no findings")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaselineFile(path, fs); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if rest := base.filter(fs); len(rest) != 0 {
		t.Errorf("baseline left %d of its own findings: %v", len(rest), rest)
	}
	extra := append(append([]finding(nil), fs...), finding{File: "x.go", Line: 1, Col: 1, Rule: ruleTimeNow, Msg: "new"})
	if rest := base.filter(extra); len(rest) != 1 || rest[0].Msg != "new" {
		t.Errorf("baseline failed to isolate the new finding: %v", rest)
	}
}

// TestFindingJSON pins the machine-readable field names.
func TestFindingJSON(t *testing.T) {
	data, err := json.Marshal(finding{File: "f.go", Line: 3, Col: 7, Rule: ruleRand, Msg: "m"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"f.go","line":3,"col":7,"rule":"rand","msg":"m"}`
	if string(data) != want {
		t.Errorf("finding JSON = %s, want %s", data, want)
	}
}

// TestVettoolProtocol builds the real binary and drives it through cmd/go
// as a vettool over the whole module, which must vet clean — the same
// acceptance gate make vet and CI enforce.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module twice")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "obdcheck")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir, _ = os.Getwd()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over the module found issues: %v\n%s", err, out)
	}
}
