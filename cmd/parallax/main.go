// Command parallax is the protection toolchain driver: build corpus
// programs, protect them with verification chains, inspect gadgets and
// chains, run binaries under the emulator, and apply attacks.
//
// Usage:
//
//	parallax build   -prog wget -o wget.plx
//	parallax protect -prog wget [-verify mix32 | -auto] [-mode xor] -o wget-p.plx
//	parallax batch   [-progs all] [-modes static,xor,rc4,prob] [-workers N] [-rounds 2]
//	parallax run     wget-p.plx [-stdin file] [-debugger] [-max N]
//	parallax trace   wget-p.plx [-every N] [-limit N] [-json] | -prog wget [-gadgets]
//	parallax gadgets wget-p.plx [-usable] [-kind pop] [-limit N]
//	parallax chain   -prog wget -verify mix32 [-mu]
//	parallax disasm  wget-p.plx [-func main]
//	parallax coverage -prog wget
//	parallax attack  wget-p.plx -addr 0x8048123 -hex cc -o cracked.plx
//	parallax campaign -prog wget [-stride 3] [-max-mutants 2048] [-kinds bitflip,serial]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"parallax/internal/attack"
	"parallax/internal/codegen"
	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
	"parallax/internal/emu"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/rewrite"
	"parallax/internal/x86"
)

// errUsage marks bad command-line input. Every subcommand error chain
// either wraps it (caller mistake, exit status 2) or not (internal
// fault, exit status 1), so scripts can tell the two apart.
var errUsage = errors.New("usage error")

// usagef builds an errUsage-wrapped error from a format string.
func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "protect":
		err = cmdProtect(args)
	case "batch":
		err = cmdBatch(args)
	case "run":
		err = cmdRun(args)
	case "trace":
		err = cmdTrace(args)
	case "gadgets":
		err = cmdGadgets(args)
	case "chain":
		err = cmdChain(args)
	case "disasm":
		err = cmdDisasm(args)
	case "coverage":
		err = cmdCoverage(args)
	case "ir":
		err = cmdIR(args)
	case "attack":
		err = cmdAttack(args)
	case "campaign":
		err = cmdCampaign(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "parallax: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parallax %s: %v\n", cmd, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `parallax <command> [flags]

commands:
  build     compile a corpus program to an unprotected image
  protect   protect a corpus program with verification chains
  batch     protect the corpus x chain-mode matrix concurrently
  run       execute an image under the emulator
  trace     execute an image with an execution-trace sink attached
            (return events = chain gadget boundaries; -metrics)
  gadgets   list the gadget catalog of an image
  chain     compile and dump a verification chain
  disasm    disassemble an image
  coverage  measure protectable code bytes (Figure 6, one program)
  ir        dump a corpus program's IR
  attack    patch bytes in an image (software cracking)
  campaign  sweep tamper mutations over a protected program and
            report the per-region detection-coverage matrix

run 'parallax <command> -h' for flags; corpus programs:
  wget nginx bzip2 gzip gcc lame
batch, campaign, and trace also take gen:<family>:<seed> programs
(families: tiny small branchy stringy muldiv callheavy); generated
programs carry a 'heavy' -workload profile that drives their cold
code`)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name")
	out := fs.String("o", "", "output image path")
	fs.Parse(args)
	p, err := corpus.ByName(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *out == "" {
		return usagef("need -o")
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		return fmt.Errorf("building %s: %w", p.Name, err)
	}
	if err := img.Save(*out); err != nil {
		return fmt.Errorf("saving image: %w", err)
	}
	fmt.Printf("built %s: text %d bytes, %d symbols -> %s\n",
		p.Name, img.Text().Size, len(img.Symbols), *out)
	return nil
}

func cmdProtect(args []string) error {
	fs := flag.NewFlagSet("protect", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name")
	verify := fs.String("verify", "", "verification function (default: program's candidate)")
	auto := fs.Bool("auto", false, "auto-select the verification function (§VII-B)")
	mode := fs.String("mode", "static", "chain mode: static|xor|rc4|prob")
	mu := fs.Bool("mu", false, "instruction-level µ-chains (§V-C)")
	seed := fs.Uint("seed", 0xA5A5A5A5, "key/basis seed for dynamic modes")
	out := fs.String("o", "", "output image path")
	fs.Parse(args)

	p, err := corpus.ByName(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *out == "" {
		return usagef("need -o")
	}
	chainMode, err := parseMode(*mode)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	opts := core.Options{
		ChainMode: chainMode,
		MuChains:  *mu,
		Seed:      uint32(*seed),
		Workload:  p.Stdin,
	}
	m := p.Build()
	switch {
	case *auto:
		opts.AutoSelect = true
	case *verify != "":
		if m.Func(*verify) == nil {
			return usagef("no function %q in %s", *verify, p.Name)
		}
		opts.VerifyFuncs = []string{*verify}
	default:
		opts.VerifyFuncs = []string{p.VerifyFunc}
	}
	prot, err := core.Protect(m, opts)
	if err != nil {
		return fmt.Errorf("protecting %s: %w", p.Name, err)
	}
	if err := prot.Image.Save(*out); err != nil {
		return fmt.Errorf("saving image: %w", err)
	}
	for _, fn := range prot.VerifyFuncs {
		ch := prot.Chains[fn]
		fmt.Printf("chain %s: %d words, %d distinct gadgets\n",
			fn, len(ch.Words), len(ch.Gadgets()))
	}
	st := prot.ProtectedBytes()
	fmt.Printf("rewrite sites: %d, overlap gadget slots: %d/%d\n",
		prot.RewriteSites, prot.OverlapGadgets, prot.TotalGadgetSlots)
	fmt.Printf("guarded app bytes: %d/%d (%.1f%%) in %d/%d functions, mode: %s -> %s\n",
		st.GuardedBytes, st.AppBytes, st.Percent(), st.GuardedFuncs, st.TotalFuncs,
		*mode, *out)
	return nil
}

func parseMode(s string) (dyngen.Mode, error) {
	switch s {
	case "static", "cleartext", "":
		return dyngen.ModeStatic, nil
	case "xor":
		return dyngen.ModeXor, nil
	case "rc4":
		return dyngen.ModeRC4, nil
	case "prob":
		return dyngen.ModeProb, nil
	default:
		return dyngen.ModeStatic, fmt.Errorf("unknown chain mode %q (want static|xor|rc4|prob)", s)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	stdinPath := fs.String("stdin", "", "file to feed as stdin")
	debugger := fs.Bool("debugger", false, "simulate an attached debugger (ptrace fails)")
	maxInst := fs.Uint64("max", 0, "instruction budget (0 = default)")
	trace := fs.Bool("trace", false, "trace system calls")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("need an image path")
	}
	img, err := image.Load(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("loading image: %w", err)
	}
	var stdin []byte
	if *stdinPath != "" {
		stdin, err = os.ReadFile(*stdinPath)
		if err != nil {
			return fmt.Errorf("%w: reading -stdin: %w", errUsage, err)
		}
	}
	cpu, err := emu.LoadImage(img)
	if err != nil {
		return err
	}
	kernel := emu.NewOS(stdin)
	kernel.DebuggerAttached = *debugger
	if *trace {
		kernel.Trace = func(s string) { fmt.Fprintln(os.Stderr, "syscall:", s) }
	}
	cpu.OS = kernel
	cpu.MaxInst = *maxInst
	runErr := cpu.Run()
	os.Stdout.Write(kernel.Stdout.Bytes())
	fmt.Fprintf(os.Stderr, "status=%d instructions=%d cycles=%d\n",
		cpu.Status, cpu.Icount, cpu.Cycles)
	if runErr != nil {
		return fmt.Errorf("execution fault: %w", runErr)
	}
	return nil
}

func cmdGadgets(args []string) error {
	fs := flag.NewFlagSet("gadgets", flag.ExitOnError)
	usable := fs.Bool("usable", false, "only chain-usable gadgets")
	kind := fs.String("kind", "", "filter by kind (pop, mov, add, store, ...)")
	limit := fs.Int("limit", 50, "max gadgets to print (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("need an image path")
	}
	img, err := image.Load(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("loading image: %w", err)
	}
	cat := gadget.Scan(img)
	counts := map[string]int{}
	printed := 0
	for _, g := range cat.Gadgets {
		counts[g.Kind.String()]++
		if *usable && !g.Usable() {
			continue
		}
		if *kind != "" && g.Kind.String() != *kind {
			continue
		}
		if *limit == 0 || printed < *limit {
			fmt.Println(g)
			printed++
		}
	}
	fmt.Printf("\n%d gadgets total; by kind:\n", len(cat.Gadgets))
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-8s %d\n", k, counts[k])
	}
	return nil
}

func cmdChain(args []string) error {
	fs := flag.NewFlagSet("chain", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name")
	verify := fs.String("verify", "", "function to compile (default: program's candidate)")
	mu := fs.Bool("mu", false, "µ-chain mode")
	fs.Parse(args)
	p, err := corpus.ByName(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	fn := *verify
	if fn == "" {
		fn = p.VerifyFunc
	}
	m := p.Build()
	if m.Func(fn) == nil {
		return usagef("no function %q in %s", fn, p.Name)
	}
	prot, err := core.Protect(m, core.Options{
		VerifyFuncs: []string{fn},
		MuChains:    *mu,
	})
	if err != nil {
		return fmt.Errorf("compiling chain for %s: %w", fn, err)
	}
	fmt.Print(prot.Chains[fn])
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fnName := fs.String("func", "", "only this function")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("need an image path")
	}
	img, err := image.Load(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("loading image: %w", err)
	}
	text := img.Text()
	for _, sym := range img.Funcs() {
		if *fnName != "" && sym.Name != *fnName {
			continue
		}
		fmt.Printf("\n%08x <%s>:\n", sym.Addr, sym.Name)
		code := text.Data[sym.Addr-text.Addr : sym.Addr+sym.Size-text.Addr]
		addr := sym.Addr
		for _, in := range x86.Disassemble(code, sym.Addr) {
			raw := text.Data[addr-text.Addr : addr-text.Addr+uint32(in.Len)]
			fmt.Printf("%8x: %-24s %s\n", addr, hexBytes(raw), in)
			addr += uint32(in.Len)
		}
	}
	return nil
}

func hexBytes(b []byte) string {
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = fmt.Sprintf("%02x", v)
	}
	return strings.Join(parts, " ")
}

func cmdCoverage(args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name")
	fs.Parse(args)
	p, err := corpus.ByName(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	img, err := codegen.Build(p.Build())
	if err != nil {
		return fmt.Errorf("building %s: %w", p.Name, err)
	}
	rep, err := rewrite.Measure(img)
	if err != nil {
		return fmt.Errorf("measuring %s: %w", p.Name, err)
	}
	fmt.Printf("%s: %d text bytes (strict / compositional %%)\n", p.Name, rep.TextBytes)
	fmt.Printf("  existing near-ret: %5.1f%%\n", rep.Percent(rewrite.RuleExisting))
	fmt.Printf("  far-ret:           %5.1f%%\n", rep.Percent(rewrite.RuleFarRet))
	fmt.Printf("  immediate-mod:     %5.1f%% / %5.1f%%\n",
		rep.Percent(rewrite.RuleImmMod), rep.PercentReach(rewrite.RuleImmMod))
	fmt.Printf("  jump-mod:          %5.1f%% / %5.1f%%\n",
		rep.Percent(rewrite.RuleJumpMod), rep.PercentReach(rewrite.RuleJumpMod))
	fmt.Printf("  any rule:          %5.1f%% / %5.1f%%\n",
		rep.AnyPercent(), rep.AnyReachPercent())
	return nil
}

func cmdIR(args []string) error {
	fs := flag.NewFlagSet("ir", flag.ExitOnError)
	prog := fs.String("prog", "", "corpus program name")
	fnName := fs.String("func", "", "only this function")
	fs.Parse(args)
	p, err := corpus.ByName(*prog)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	m := p.Build()
	if *fnName != "" {
		f := m.Func(*fnName)
		if f == nil {
			return usagef("no function %q in %s", *fnName, p.Name)
		}
		fmt.Print(f)
		return nil
	}
	fmt.Print(m)
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	addrStr := fs.String("addr", "", "target address (hex)")
	hexStr := fs.String("hex", "cc", "bytes to write (hex)")
	nop := fs.Uint("nop", 0, "nop out this many bytes instead")
	out := fs.String("o", "", "output image path")
	fs.Parse(args)
	if fs.NArg() != 1 || *addrStr == "" || *out == "" {
		return usagef("need an image path, -addr and -o")
	}
	img, err := image.Load(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("loading image: %w", err)
	}
	addr64, err := strconv.ParseUint(strings.TrimPrefix(*addrStr, "0x"), 16, 32)
	if err != nil {
		return fmt.Errorf("%w: bad -addr: %w", errUsage, err)
	}
	addr := uint32(addr64)
	if *nop > 0 {
		err = attack.NopOut(img, addr, uint32(*nop))
	} else {
		var b []byte
		clean := strings.ReplaceAll(*hexStr, " ", "")
		for i := 0; i+1 < len(clean)+1 && i+2 <= len(clean); i += 2 {
			v, perr := strconv.ParseUint(clean[i:i+2], 16, 8)
			if perr != nil {
				return fmt.Errorf("%w: bad -hex: %w", errUsage, perr)
			}
			b = append(b, byte(v))
		}
		err = attack.PatchBytes(img, addr, b)
	}
	if err != nil {
		return fmt.Errorf("patching: %w", err)
	}
	if err := img.Save(*out); err != nil {
		return fmt.Errorf("saving image: %w", err)
	}
	fmt.Printf("patched %#x -> %s\n", addr, *out)
	return nil
}
