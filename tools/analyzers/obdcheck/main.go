// Command obdcheck is the repo's multi-rule static-analysis suite,
// usable as a go vet -vettool. It grew out of detlint (PR 2) and
// enforces the contracts the reproduction's correctness rests on, over
// the whole module rather than just internal/atpg:
//
//   - rangemap, timenow, rand: the determinism contract — no map-order
//     dependent output, no wall clock, no global math/rand (a seeded
//     rand.New(rand.NewSource(seed)) passes);
//   - enumswitch: the exhaustiveness contract — switches over declared
//     enums (logic.GateType, obd.Stage, fault.NetKind, ...) cover every
//     constant or carry a non-panicking default;
//   - paniccontract: the typed-error contract — no panic reachable from
//     exported API in migrated packages (analog layer exempt via
//     -paniccontract.exempt until it migrates);
//   - schedmisuse: the scheduler contract — ForEach/ForEachCtx closures
//     write only their own index slot;
//   - allowcheck: the suppressions themselves — unknown rules and
//     missing reasons are findings, never silently ignored, and
//     -staleallows reports annotations that no longer suppress anything.
//
// Findings are suppressed by "//obdcheck:allow <rule> — <reason>" on the
// same or the preceding line; the reason is mandatory.
//
// A baseline file (-baseline findings.json, written by -writebaseline)
// tolerates recorded legacy findings while new ones keep failing CI.
//
// The tool speaks cmd/go's vettool protocol (-V=full, -flags, and a
// *.cfg unit file) directly on the standard library, because the usual
// golang.org/x/tools unitchecker scaffolding is not vendored here. It
// also runs standalone over directories (with a best-effort local
// typecheck, falling back to syntactic analysis where imports cannot be
// resolved): obdcheck ./internal/atpg ./internal/mission
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		printFlagDefs()
		return
	}
	cfg, rest, err := parseFlags(args)
	if err != nil {
		os.Exit(1) // flag package already printed the usage error
	}
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(vetUnit(cfg, rest[0]))
	}
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "usage: obdcheck [flags] <dir>... (or via go vet -vettool=obdcheck)")
		os.Exit(1)
	}
	os.Exit(standalone(cfg, rest))
}

// parseFlags builds the run configuration from the command line.
func parseFlags(args []string) (*config, []string, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("obdcheck", flag.ContinueOnError)
	ruleOn := make(map[string]*bool, len(registry))
	for _, r := range registry {
		ruleOn[r.Name] = fs.Bool(r.Name, true, "enable the "+r.Name+" rule: "+r.Doc)
	}
	format := fs.String("format", "text", "output format: text (stderr, vet style) or json (stdout)")
	baselinePath := fs.String("baseline", "", "baseline file of tolerated findings; only new findings fail")
	writeBase := fs.String("writebaseline", "", "write current findings to this baseline file and exit clean")
	stale := fs.Bool("staleallows", false, "report //obdcheck:allow annotations that suppress nothing")
	exempt := fs.String("paniccontract.exempt", strings.Join(cfg.panicExempt, ","),
		"comma-separated package-path segments exempt from paniccontract")
	errExempt := fs.String("errwrap.exempt", strings.Join(cfg.errwrapExempt, ","),
		"comma-separated package-path segments exempt from errwrap")
	factsModule := fs.String("xpkg.module", cfg.factsModule,
		"import-path prefix whose packages exchange cross-package panic facts")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	for _, r := range registry {
		cfg.enabled[r.Name] = *ruleOn[r.Name]
	}
	cfg.format = *format
	cfg.baselinePath = *baselinePath
	cfg.writeBaseline = *writeBase
	cfg.staleAllows = *stale
	cfg.factsModule = *factsModule
	cfg.panicExempt = splitSegments(*exempt)
	cfg.errwrapExempt = splitSegments(*errExempt)
	return cfg, fs.Args(), nil
}

// splitSegments parses a comma-separated exemption list.
func splitSegments(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		if seg = strings.TrimSpace(seg); seg != "" {
			out = append(out, seg)
		}
	}
	return out
}

// printFlagDefs answers cmd/go's -flags handshake: a JSON list of the
// flags the vettool accepts, so go vet forwards them.
func printFlagDefs() {
	type flagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []flagDef
	for _, r := range registry {
		defs = append(defs, flagDef{Name: r.Name, Bool: true, Usage: "enable the " + r.Name + " rule"})
	}
	defs = append(defs,
		flagDef{Name: "format", Bool: false, Usage: "output format: text or json"},
		flagDef{Name: "baseline", Bool: false, Usage: "baseline file of tolerated findings"},
		flagDef{Name: "writebaseline", Bool: false, Usage: "write current findings as a baseline"},
		flagDef{Name: "staleallows", Bool: true, Usage: "report suppressions that suppress nothing"},
		flagDef{Name: "paniccontract.exempt", Bool: false, Usage: "package segments exempt from paniccontract"},
		flagDef{Name: "errwrap.exempt", Bool: false, Usage: "package segments exempt from errwrap"},
		flagDef{Name: "xpkg.module", Bool: false, Usage: "import-path prefix exchanging panic facts"},
	)
	data, _ := json.Marshal(defs)
	fmt.Println(string(data))
}

// printVersion answers cmd/go's -V=full tool-identity handshake: the
// output doubles as the tool's build ID, so it hashes the executable the
// same way the unitchecker convention does.
func printVersion() {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", os.Args[0], h.Sum(nil))
}

// vetConfig mirrors the JSON unit file cmd/go hands a vettool per
// package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one vet unit. Exit codes follow the vettool contract:
// 0 clean, nonzero with file:line:col messages on stderr otherwise.
func vetUnit(cfg *config, cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
		return 1
	}
	var unit vetConfig
	if err := json.Unmarshal(data, &unit); err != nil {
		fmt.Fprintf(os.Stderr, "obdcheck: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Only module packages exchange panic facts: the cross-package chains
	// the contract cares about are module-internal, and parsing the whole
	// stdlib during VetxOnly dependency passes would be pure waste.
	wantFacts := cfg.factsModule != "" && (unit.ImportPath == cfg.factsModule ||
		strings.HasPrefix(unit.ImportPath, cfg.factsModule+"/"))
	if unit.VetxOnly && !wantFacts {
		// cmd/go expects the facts file to exist regardless.
		if unit.VetxOutput != "" {
			if err := os.WriteFile(unit.VetxOutput, nil, 0666); err != nil {
				fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
				return 1
			}
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range unit.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue // the contracts govern shipped code only
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if unit.VetxOutput != "" {
			if err := os.WriteFile(unit.VetxOutput, nil, 0666); err != nil {
				fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
				return 1
			}
		}
		return 0
	}

	info, pkg := typecheckUnit(fset, files, &unit)
	p := newPass(cfg, fset, files, info, pkg, unit.ImportPath)
	p.deps = readVetxFacts(&unit)
	p.prepare()

	// Publish this unit's facts for downstream units before reporting, so
	// a diagnostic failure does not starve dependents of facts.
	if unit.VetxOutput != "" {
		data, err := json.Marshal(p.facts())
		if err == nil {
			err = os.WriteFile(unit.VetxOutput, data, 0666)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
			return 1
		}
	}
	if unit.VetxOnly {
		return 0 // dependency pass: facts only, no diagnostics wanted
	}
	if info == nil && unit.SucceedOnTypecheckFailure {
		return 0
	}
	findings := p.run()
	return finish(cfg, findings)
}

// readVetxFacts loads the panic facts of the unit's imports from the
// vetx files cmd/go hands over. Empty or missing files mean "no known
// panics" — the rule stays one-sided.
func readVetxFacts(unit *vetConfig) map[string]*pkgFacts {
	if len(unit.PackageVetx) == 0 {
		return nil
	}
	deps := make(map[string]*pkgFacts, len(unit.PackageVetx))
	for path, file := range unit.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var facts pkgFacts
		if json.Unmarshal(data, &facts) != nil || len(facts.Panics) == 0 {
			continue
		}
		deps[path] = &facts
	}
	return deps
}

// typecheckUnit resolves the unit against the export data cmd/go
// supplied. The returned info may be partially filled when some files
// fail to resolve; the rules degrade per-expression.
func typecheckUnit(fset *token.FileSet, files []*ast.File, unit *vetConfig) (*types.Info, *types.Package) {
	compilerImporter := importer.ForCompiler(fset, unit.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := unit.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := unit.ImportMap[path]; ok {
			path = mapped
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect as many files as possible
	}
	info := newInfo()
	pkg, err := tc.Check(unit.ImportPath, fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil
	}
	return info, pkg
}

func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// standalone walks directories, groups the non-test .go files by
// directory (package), typechecks each group best-effort with the
// source importer (stdlib imports resolve; module-internal ones degrade
// to syntactic analysis) and runs the rules.
func standalone(cfg *config, dirs []string) int {
	pkgs := make(map[string][]string) // dir -> files
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			pkgDir := filepath.Dir(path)
			pkgs[pkgDir] = append(pkgs[pkgDir], path)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
			return 1
		}
	}
	pkgDirs := make([]string, 0, len(pkgs))
	for dir := range pkgs {
		pkgDirs = append(pkgDirs, dir)
	}
	sort.Strings(pkgDirs)

	passes := make([]*pass, 0, len(pkgDirs))
	for _, dir := range pkgDirs {
		fset := token.NewFileSet()
		var files []*ast.File
		sort.Strings(pkgs[dir])
		for _, path := range pkgs[dir] {
			f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "obdcheck: %v\n", perr)
				return 1
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info, pkg := typecheckLoose(fset, files, dir)
		p := newPass(cfg, fset, files, info, pkg, filepath.ToSlash(dir))
		p.prepare()
		passes = append(passes, p)
	}
	all := analyzePackages(passes)
	return finish(cfg, all)
}

// analyzePackages runs the prepared passes with cross-package panic
// facts: a fixpoint over the whole group (standalone mode has no
// dependency order from cmd/go, and directory trees may even contain
// import cycles as far as the syntactic resolver can tell), then the
// rule runs. Fact lookups match import paths to analyzed directories by
// path suffix — see (*pass).depFact.
func analyzePackages(passes []*pass) []finding {
	facts := make(map[string]*pkgFacts, len(passes))
	for changed := true; changed; {
		changed = false
		for _, p := range passes {
			p.deps = facts
			next := p.facts()
			if !next.equal(facts[p.pkgPath]) {
				facts[p.pkgPath] = next
				changed = true
			}
		}
	}
	var all []finding
	for _, p := range passes {
		p.deps = facts
		all = append(all, p.run()...)
	}
	return all
}

// typecheckLoose typechecks a standalone package with the source
// importer, tolerating unresolved imports (module-internal paths are not
// resolvable outside the build): the info is partial and rules degrade
// gracefully.
func typecheckLoose(fset *token.FileSet, files []*ast.File, path string) (*types.Info, *types.Package) {
	tc := &types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {}, // keep going on unresolved imports
	}
	info := newInfo()
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil && pkg == nil {
		return nil, nil
	}
	return info, pkg
}

// finish applies the baseline, emits the findings and picks the exit
// code (0 clean, 2 findings, 1 operational error).
func finish(cfg *config, findings []finding) int {
	if cfg.writeBaseline != "" {
		if err := writeBaselineFile(cfg.writeBaseline, findings); err != nil {
			fmt.Fprintf(os.Stderr, "obdcheck: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "obdcheck: wrote %d finding(s) to baseline %s\n", len(findings), cfg.writeBaseline)
		return 0
	}
	if cfg.baselinePath != "" {
		base, err := loadBaseline(cfg.baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		findings = base.filter(findings)
	}
	emit(cfg, findings)
	if len(findings) > 0 {
		return 2
	}
	return 0
}
