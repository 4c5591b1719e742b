package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the tool and drives the full protect → run →
// inspect → attack workflow through the command-line surface.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parallax")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(wantOK bool, args ...string) string {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if (err == nil) != wantOK {
			t.Fatalf("parallax %v: err=%v\n%s", args, err, out)
		}
		return string(out)
	}

	base := filepath.Join(dir, "nginx.plx")
	prot := filepath.Join(dir, "nginx-p.plx")

	out := run(true, "build", "-prog", "nginx", "-o", base)
	if !strings.Contains(out, "built nginx") {
		t.Errorf("build output: %s", out)
	}

	out = run(true, "protect", "-prog", "nginx", "-mode", "xor", "-o", prot)
	if !strings.Contains(out, "chain bucket:") {
		t.Errorf("protect output: %s", out)
	}

	baseOut := run(true, "run", base)
	protOut := run(true, "run", prot)
	statusOf := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "status=") {
				return strings.Fields(line)[0]
			}
		}
		return ""
	}
	if statusOf(baseOut) != statusOf(protOut) || statusOf(baseOut) == "" {
		t.Errorf("status mismatch: base=%q prot=%q", statusOf(baseOut), statusOf(protOut))
	}

	out = run(true, "gadgets", "-usable", "-limit", "5", prot)
	if !strings.Contains(out, "gadgets total") {
		t.Errorf("gadgets output: %s", out)
	}

	out = run(true, "coverage", "-prog", "nginx")
	if !strings.Contains(out, "any rule:") {
		t.Errorf("coverage output: %s", out)
	}

	out = run(true, "chain", "-prog", "nginx")
	if !strings.Contains(out, "chain bucket:") || !strings.Contains(out, "gadget") {
		t.Errorf("chain output: %s", out)
	}

	// Attack a chain gadget listed by the gadgets command: take the
	// first usable pop gadget's address.
	gout := run(true, "gadgets", "-usable", "-kind", "pop", "-limit", "1", prot)
	line := strings.SplitN(gout, "\n", 2)[0]
	addr := strings.TrimSuffix(strings.Fields(line)[0], ":")
	cracked := filepath.Join(dir, "cracked.plx")
	run(true, "attack", "-addr", addr, "-hex", "cc", "-o", cracked, prot)

	// The attacked binary must misbehave (non-zero exit from the tool,
	// or a different status) — only if that pop gadget is actually used
	// by the chain, which we cannot guarantee from here; so only check
	// that the tool round-trips the patched image.
	crackedOut, err := exec.Command(bin, "run", cracked).CombinedOutput()
	t.Logf("cracked run (err=%v): %s", err, firstLine(string(crackedOut)))

	// Batch-protect a sub-matrix through the farm; round 2 repeats
	// round 1's fixpoint passes, so each of its scan lookups must hit.
	out = run(true, "batch", "-progs", "nginx,gzip", "-modes", "static,xor",
		"-rounds", "2", "-o", filepath.Join(dir, "batch"))
	if !strings.Contains(out, "nginx/xor") || strings.Contains(out, "FAILED") {
		t.Errorf("batch output: %s", out)
	}
	if m := regexp.MustCompile(`round 1 stats: .*scan cache: (\d+) hits / (\d+) misses`).FindStringSubmatch(out); m == nil {
		t.Errorf("batch round 1 stats missing:\n%s", out)
	} else {
		hits, _ := strconv.Atoi(m[1])
		misses, _ := strconv.Atoi(m[2])
		want := fmt.Sprintf("scan cache: %d hits / 0 misses (100.0%%)", hits+misses)
		if !regexp.MustCompile(`round 2 stats: .*` + regexp.QuoteMeta(want)).MatchString(out) {
			t.Errorf("batch round 2 not fully cached (want %q):\n%s", want, out)
		}
	}
	// A batch-protected image equals the sequentially protected one.
	seq := filepath.Join(dir, "nginx-seq.plx")
	run(true, "protect", "-prog", "nginx", "-mode", "xor", "-o", seq)
	same, err := filesEqual(seq, filepath.Join(dir, "batch", "nginx-xor.plx"))
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("batch image differs from sequential protect output")
	}

	// Unknown command and missing flags fail loudly.
	run(false, "bogus")
	run(false, "build", "-prog", "nope", "-o", filepath.Join(dir, "x.plx"))

	// Bad input exits 2; internal faults exit 1 — scripts can tell the
	// difference.
	wantExit := func(code int, args ...string) {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != code {
			t.Errorf("parallax %v: err=%v, want exit %d\n%s", args, err, code, out)
		}
		if len(out) != 0 && !strings.Contains(string(out), "parallax") {
			t.Errorf("parallax %v: diagnostics not on stderr-style message: %s", args, out)
		}
	}
	wantExit(2, "build", "-prog", "nope", "-o", filepath.Join(dir, "x.plx"))
	wantExit(2, "protect", "-prog", "wget", "-mode", "bogus", "-o", filepath.Join(dir, "x.plx"))
	wantExit(2, "protect", "-prog", "wget", "-verify", "nope", "-o", filepath.Join(dir, "x.plx"))
	wantExit(2, "run") // missing image path
	wantExit(2, "batch", "-modes", "bogus")
	// A bad -metrics-format is a usage error found before the batch
	// creates its output directory.
	outDir := filepath.Join(dir, "bad-format")
	wantExit(2, "batch", "-o", outDir, "-metrics-format", "xml")
	if _, err := os.Stat(outDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("batch with a bad -metrics-format left %s behind (stat: %v)", outDir, err)
	}
	wantExit(1, "run", filepath.Join(dir, "does-not-exist.plx"))
	wantExit(1, "gadgets", filepath.Join(dir, "does-not-exist.plx"))

	// Campaign: a small sweep must produce a matrix with chain
	// detections and no silent acceptance of the serialized corruption.
	out = run(true, "campaign", "-prog", "nginx", "-stride", "17",
		"-max-mutants", "200", "-kinds", "byteset,serial")
	if !strings.Contains(out, "guarded-site chain detection:") ||
		!strings.Contains(out, "(serialized)") {
		t.Errorf("campaign output missing matrix:\n%s", out)
	}
	if strings.Contains(out, "harness panics: 0") == false {
		t.Errorf("campaign reported panics:\n%s", out)
	}
	// Usage errors exit 2; an unrunnable campaign (clean reference run
	// dies on a starvation budget) is an internal fault, exit 1.
	wantExit(2, "campaign", "-prog", "nope")
	wantExit(2, "campaign", "-prog", "nginx", "-kinds", "bogus")
	wantExit(2, "campaign", "-prog", "nginx", "-verify", "nope")
	wantExit(2, "campaign", "-prog", "nginx", "-mode", "bogus")
	wantExit(1, "campaign", "-prog", "nginx", "-max", "100")

	// Generated programs and workload profiles: the heavy profile must
	// change the matrix (cold code runs), the idle profile must not, and
	// both sweep the same protected image (Report.String is fully
	// deterministic, so matrix text is comparable across runs).
	campaignArgs := func(workload string) []string {
		return []string{"campaign", "-prog", "gen:tiny:1", "-workload", workload,
			"-stride", "11", "-max-mutants", "96", "-kinds", "byteset"}
	}
	idleOut := run(true, campaignArgs("idle")...)
	heavyOut := run(true, campaignArgs("heavy")...)
	if !strings.Contains(idleOut, "gen-tiny-s1") {
		t.Errorf("generated-program campaign output:\n%s", idleOut)
	}
	if idleOut == heavyOut {
		t.Errorf("heavy workload did not change the detection matrix:\n%s", idleOut)
	}
	if again := run(true, campaignArgs("idle")...); again != idleOut {
		t.Errorf("idle campaign not deterministic:\n%s\nvs\n%s", idleOut, again)
	}
	wantExit(2, "campaign", "-prog", "gen:tiny:1", "-workload", "bogus")
	wantExit(2, "campaign", "-prog", "nginx", "-workload", "heavy") // hand corpus has no heavy profile
	wantExit(2, "campaign", "-prog", "gen:bogus:1")
	wantExit(2, "campaign", "-prog", "gen:tiny:x")
	wantExit(2, "campaign", "-prog", "gen:tiny")
	wantExit(2, "trace", "-workload", "heavy", prot) // -workload needs -prog
}

func filesEqual(a, b string) (bool, error) {
	da, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	db, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(da, db), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
