package parallax_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExempt names methods that satisfy a standard-library interface:
// fmt and errors call them without naming them in this repo.
var callerExempt = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// callerAllowlist names internal/ declarations that no non-test file
// uses, keyed pkg.Name or pkg.Recv.Name (pkg is the directory under
// internal/), each with the reason it stays. A name belongs here only
// if it is a paper feature whose tests are its claim, a test oracle or
// support used by tests of other behaviour, or an enum value whose
// position is its encoding.
var callerAllowlist = map[string]string{
	// Paper features whose tests are the reproduced claim.
	"attack.ForceJump":               "§IV-A attack: forcing a branch is detected (TestForceJumpAndInvertCond)",
	"attack.InvertCond":              "§IV-A attack: inverting a branch is detected (TestForceJumpAndInvertCond)",
	"attack.NewRestorer":             "§VI-A code-restore attack and its detection window (TestCodeRestoreWindow)",
	"baseline/ropguard.Attach":       "§VIII-B: verification chains trip a heuristic ROP monitor (TestChainsTriggerHeuristicMonitor)",
	"rewrite.AlignForGadget":         "§IV-B3 branch-displacement rule",
	"rewrite.FreeStatusImmediates":   "§IV-B2 free status-immediate rule",
	"rewrite.Lift":                   "binary-level protection of legacy binaries (claim 5)",
	"rewrite.InsertSpurious":         "§IV-B4 spurious-instruction rule",
	"rewrite.DefaultSpuriousGadgets": "the gadget set InsertSpurious inserts by default",

	// Test oracles and support used by tests of other behaviour.
	"attack.RunResult.Same":           "observational-equality oracle for attacked runs",
	"attack.RunUntil":                 "steps a CPU to the n-th hit of an address for the restore-window test",
	"corpus/gen.CheckCrossModule":     "invariant oracle over generated programs (gen and fuzz tests)",
	"difftest.NewGenerator":           "random-program generator driving the lockstep tests and fuzzing",
	"difftest.RunProgram":             "lockstep oracle entry point for generated programs",
	"difftest.Minimize":               "shrinks a diverging generated program for the lockstep tests",
	"dyngen.Basis.Combine":            "inverse of Decompose: the oracle for the §V-B GF(2) tables",
	"emu.Memory.SegmentByName":        "finds the stack segment in tb's fork-resume tests",
	"emu/forktest.Phased":             "fork-point test program shared by the emu and tb fork tests",
	"emu/forktest.Probe":              "fork-point probe shared by the emu and tb fork tests",
	"emu/forktest.ProbeIdle":          "fork-point probe input shared by the emu and tb fork tests",
	"emu/forktest.Split":              "fork-point test program shared by the emu and tb fork tests",
	"emu/forktest.Stdin":              "fork-point test program input shared by the emu and tb fork tests",
	"experiment.Fig5ForProgram":       "per-program Figure 5 for the root benchmarks",
	"experiment.MuAblationForProgram": "per-program §V-C ablation for the root benchmarks",
	"ir.NewInterp":                    "IR interpreter: the reference semantics codegen and ropc are tested against",
	"ir.Interp.CallFunc":              "calls one function under the IR interpreter oracle",
	"x86.Builder.CallL":               "label builder for the x86 and emulator tests",
	"x86.Builder.JmpL":                "label builder for the x86 and emulator tests",
	"x86.Builder.MovRegLabel":         "label builder for the x86 and emulator tests",
	"x86.Builder.PushLabel":           "label builder for the x86 and emulator tests",
	"x86.MemSIB":                      "SIB operand builder for the encoder, emulator and linker tests",
	"difftest.raceEnabled":            "trims the lockstep corpus tests under the race detector",
	"experiment.raceEnabled":          "trims the corpus and cold-coverage sweep tests under the race detector",

	// Enum values whose position is their encoding.
	"x86.CondNO": "condition code 1",
	"x86.CondNS": "condition code 9",
	"x86.CondNP": "condition code 11",
}

// sourceFile is one parsed non-test .go file of the repository.
type sourceFile struct {
	dir string // its directory, slash-separated
	f   *ast.File
}

// parseSources parses every non-test .go file of the repository —
// perfbench/ and examples/ included, since root go build ./... skips
// the nested perfbench module — outside dot directories and testdata.
func parseSources(t *testing.T, fset *token.FileSet) []sourceFile {
	t.Helper()
	var out []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, sourceFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// declSite is one package-level declaration under internal/.
type declSite struct {
	key    string // pkg.Name or pkg.Recv.Name
	dir    string // the declaring package's directory
	name   string
	method bool
	ident  *ast.Ident
}

// TestEveryDeclarationHasACaller is the gate against uncalled code:
// every package-level func, method, type, const and var declared in a
// non-test file under internal/ must be named in some non-test .go
// file of the repository — perfbench/ and examples/ included — other
// than by its own declaring identifier. Inside its own package's
// directory any identifier of that name counts, and an unexported
// declaration can be named nowhere else. Elsewhere, an exported
// package-level name counts only as a pkg.Name selector through an
// import of its package, under whatever name the file imports it as; a
// method counts wherever an identifier has its name. A declaration
// with no such use fails unless callerAllowlist names it with a
// reason, and an allowlist entry that has a use or names nothing fails
// too. Counting methods by name can miss a dead method whose name
// collides with a live one; the gate cannot flag live code.
func TestEveryDeclarationHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}               // identifier name -> occurrences
	dirUses := map[string]map[string]int{} // directory -> identifier name -> occurrences
	qualUses := map[string]int{}           // dir.Name -> pkg.Name selectors through an import of dir
	var decls []declSite
	for _, src := range parseSources(t, fset) {
		dir, f := src.dir, src.f
		if dirUses[dir] == nil {
			dirUses[dir] = map[string]int{}
		}
		imports := moduleImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
				dirUses[dir][n.Name]++
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualUses[imports[x.Name]+"."+n.Sel.Name]++
				}
			}
			return true
		})
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			decls = append(decls, packageDecls(pkg, dir, f)...)
		}
	}

	// A declaration split across build-tagged files (race_on.go and
	// race_off.go, say) is one key with several declaring identifiers;
	// none of them counts as a use.
	declIdents := map[string]int{}
	for _, d := range decls {
		declIdents[d.key]++
	}
	seen := map[string]bool{}
	for _, d := range decls {
		if seen[d.key] {
			continue
		}
		seen[d.key] = true
		n := dirUses[d.dir][d.name] - declIdents[d.key]
		switch {
		case d.method:
			n = uses[d.name] - declIdents[d.key]
		case ast.IsExported(d.name):
			n += qualUses[d.dir+"."+d.name]
		}
		reason, allowed := callerAllowlist[d.key]
		switch {
		case n == 0 && !allowed:
			t.Errorf("%s: %s has no caller outside tests; delete it or allowlist it with a reason",
				fset.Position(d.ident.Pos()), d.key)
		case n > 0 && allowed:
			t.Errorf("callerAllowlist: %s now has %d use(s); drop the entry (%q)", d.key, n, reason)
		}
	}
	var stale []string
	for k := range callerAllowlist {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("callerAllowlist: %s names no declaration under internal/", k)
	}
}

// packageDecls lists f's package-level declarations, keyed under pkg,
// the package in directory dir.
func packageDecls(pkg, dir string, f *ast.File) []declSite {
	var out []declSite
	add := func(key string, id *ast.Ident, method bool) {
		if id.Name != "_" {
			out = append(out, declSite{key: key, dir: dir, name: id.Name, method: method, ident: id})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				if decl.Name.Name != "init" {
					add(pkg+"."+decl.Name.Name, decl.Name, false)
				}
				continue
			}
			if !callerExempt[decl.Name.Name] {
				add(pkg+"."+recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name, true)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+spec.Name.Name, spec.Name, false)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(pkg+"."+id.Name, id, false)
					}
				}
			}
		}
	}
	return out
}

// moduleImports maps the names under which f imports this module's
// packages to their directories.
func moduleImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "parallax/")
		if !ok {
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = dir
	}
	return out
}

// recvName returns the type name of a method receiver expression, T
// or *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}

// optionAllowlist names exported fields of internal/ option structs
// that no non-test file outside their package sets, keyed
// pkg.Type.Field, each with the reason it stays. A field belongs here
// only if it is a paper ablation or check whose tests are its claim, a
// test oracle's setting, or a watchdog or loader bound.
var optionAllowlist = map[string]string{
	// Paper features whose tests are the reproduced claim.
	"core.Options.ChecksumChains":   "§VI-C chain checksum (TestChecksumChains*, the wget/cschk digest)",
	"core.Options.DisableRewriting": "§IV-B overlap ablation (TestOverlapAblation)",

	// Test oracle settings.
	"difftest.Options.LegacyRefRCROF":        "reverts the RCR overflow-flag fix to show the lockstep oracle catches it",
	"experiment.CorpusOptions.CrossEvery":    "density of reference-path cross-checks in the corpus sweep tests",
	"experiment.ColdCoverOptions.CrossEvery": "density of reference-path cross-checks in the cold-coverage tests",

	// Watchdog and loader bounds (DESIGN §4 decision 7).
	"attack.RunConfig.MemBudget": "emulator memory watchdog",
	"attack.RunConfig.StackSize": "emulator loader stack bound",
	"campaign.Config.MemBudget":  "per-mutant emulator memory watchdog",
	"campaign.Config.StackSize":  "per-mutant emulator loader stack bound",
	"difftest.Options.StackSize": "lockstep loader stack bound",
	"emu.LoadConfig.MemBudget":   "emulator memory watchdog",
	"emu.LoadConfig.StackSize":   "emulator loader stack bound",
}

// optionField is one exported field of an exported struct type under
// internal/ whose name ends in Options or Config.
type optionField struct {
	key   string // pkg.Type.Field
	dir   string // the declaring package's directory
	name  string
	ident *ast.Ident
}

// TestEveryOptionHasASetter is the gate against options nothing
// chooses: every exported field of an exported internal/ struct type
// named *Options or *Config must be written by some non-test .go file
// outside its own package directory — cmd/, examples/ and perfbench/
// included — as a composite-literal key or an assignment target. A
// write whose value is a selector of the same field name (F: x.F,
// y.F = x.F) forwards a choice made elsewhere and does not count. A
// field with no such write fails unless optionAllowlist names it with
// a reason, and an allowlist entry that has a write or names nothing
// fails too. Like the caller gate it counts by name: a write of a
// same-named field of another struct keeps an option alive, but an
// option it flags has no setter.
func TestEveryOptionHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	writes := map[string]map[string]int{} // directory -> field name -> writes
	var fields []optionField
	for _, src := range parseSources(t, fset) {
		dir, f := src.dir, src.f
		if writes[dir] == nil {
			writes[dir] = map[string]int{}
		}
		write := func(target, value ast.Expr) {
			var name string
			switch target := target.(type) {
			case *ast.Ident:
				name = target.Name
			case *ast.SelectorExpr:
				name = target.Sel.Name
			}
			if sel, ok := value.(*ast.SelectorExpr); name != "" && !(ok && sel.Sel.Name == name) {
				writes[dir][name]++
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if _, isMap := n.Type.(*ast.MapType); isMap {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						write(kv.Key, kv.Value)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.SelectorExpr); !ok {
						continue
					}
					var value ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					write(lhs, value)
				}
			case *ast.IncDecStmt:
				if _, ok := n.X.(*ast.SelectorExpr); ok {
					write(n.X, nil)
				}
			}
			return true
		})
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			fields = append(fields, optionFields(pkg, dir, f)...)
		}
	}

	seen := map[string]bool{}
	for _, of := range fields {
		seen[of.key] = true
		n := 0
		for dir, w := range writes {
			if dir != of.dir {
				n += w[of.name]
			}
		}
		reason, allowed := optionAllowlist[of.key]
		switch {
		case n == 0 && !allowed:
			t.Errorf("%s: %s is set by no non-test file outside its package; make it a constant or allowlist it with a reason",
				fset.Position(of.ident.Pos()), of.key)
		case n > 0 && allowed:
			t.Errorf("optionAllowlist: %s now has %d setter(s); drop the entry (%q)", of.key, n, reason)
		}
	}
	var stale []string
	for k := range optionAllowlist {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("optionAllowlist: %s names no option field under internal/", k)
	}
}

// optionFields lists the exported fields of f's exported struct types
// whose names end in Options or Config, keyed under pkg, the package
// in directory dir.
func optionFields(pkg, dir string, f *ast.File) []optionField {
	var out []optionField
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !ast.IsExported(name) ||
				!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if ast.IsExported(id.Name) {
						out = append(out, optionField{key: pkg + "." + name + "." + id.Name, dir: dir, name: id.Name, ident: id})
					}
				}
			}
		}
	}
	return out
}

// prefixOwners maps each prefix of the symbol names the toolchain adds
// to the file declaring its owner: image.Internal, chain.Owns and
// checksum.Owns.
var prefixOwners = map[string]string{
	"..":          "internal/image/image.go",
	"..parallax.": "internal/chain/loader.go",
	"..cs.":       "internal/baseline/checksum/checksum.go",
}

// prefixFuncs are the strings functions that compare their second
// argument against the start of their first.
var prefixFuncs = map[string]bool{"HasPrefix": true, "CutPrefix": true, "TrimPrefix": true}

// TestSymbolPrefixHasOneOwner is the gate for the symbol-prefix rule:
// a non-test file that compares a string against a literal starting
// with ".." — with ==, !=, strings.HasPrefix, strings.CutPrefix or
// strings.TrimPrefix — fails unless it is the declaring file of the
// owner of the longest prefixOwners prefix the literal starts with.
// Every other file asks that owner. Building a name by concatenation
// or Sprintf is no comparison and stays allowed. A table entry naming
// no source file fails too, so the table cannot go stale.
func TestSymbolPrefixHasOneOwner(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]bool{}
	for _, src := range parseSources(t, fset) {
		file := filepath.ToSlash(fset.Position(src.f.Package).Filename)
		files[file] = true
		ast.Inspect(src.f, func(n ast.Node) bool {
			var operands []ast.Expr
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					operands = []ast.Expr{n.X, n.Y}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if ok && len(n.Args) == 2 && prefixFuncs[sel.Sel.Name] {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "strings" {
						operands = n.Args[1:]
					}
				}
			}
			for _, e := range operands {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.HasPrefix(s, "..") {
					continue
				}
				prefix := ""
				for p := range prefixOwners {
					if strings.HasPrefix(s, p) && len(p) > len(prefix) {
						prefix = p
					}
				}
				if file != prefixOwners[prefix] {
					t.Errorf("%s: compares a name against %q; ask the %q owner in %s",
						fset.Position(lit.Pos()), s, prefix, prefixOwners[prefix])
				}
			}
			return true
		})
	}
	for p, file := range prefixOwners {
		if !files[file] {
			t.Errorf("prefixOwners: the %q owner's file %s is not a source file", p, file)
		}
	}
}
