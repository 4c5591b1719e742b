package parallax_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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

// declSite is one package-level declaration under internal/.
type declSite struct {
	key   string // pkg.Name or pkg.Recv.Name
	dir   string // the declaring package's directory
	name  string
	ident *ast.Ident
}

// TestEveryDeclarationHasACaller is the gate against uncalled code:
// every package-level func, method, type, const and var declared in a
// non-test file under internal/ must be named by an identifier in some
// non-test .go file of the repository — perfbench/ and examples/
// included — other than its own declaring identifier; an unexported
// declaration only by an identifier in its own package's directory,
// the only place that can refer to it. A declaration
// with no such identifier fails unless callerAllowlist names it with a
// reason, and an allowlist entry that has a use or names nothing fails
// too. Counting by name can miss dead code whose name collides with a
// live one; it cannot flag live code.
func TestEveryDeclarationHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}               // identifier name -> occurrences
	dirUses := map[string]map[string]int{} // directory -> identifier name -> occurrences
	var decls []declSite
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
		dir := filepath.ToSlash(filepath.Dir(path))
		if dirUses[dir] == nil {
			dirUses[dir] = map[string]int{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
				dirUses[dir][id.Name]++
			}
			return true
		})
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			decls = append(decls, packageDecls(pkg, dir, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
		n := uses[d.name] - declIdents[d.key]
		if !ast.IsExported(d.name) {
			n = dirUses[d.dir][d.name] - declIdents[d.key]
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
	add := func(key string, id *ast.Ident) {
		if id.Name != "_" {
			out = append(out, declSite{key: key, dir: dir, name: id.Name, ident: id})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				if decl.Name.Name != "init" {
					add(pkg+"."+decl.Name.Name, decl.Name)
				}
				continue
			}
			if !callerExempt[decl.Name.Name] {
				add(pkg+"."+recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+spec.Name.Name, spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(pkg+"."+id.Name, id)
					}
				}
			}
		}
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
