package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"parallax/internal/attack"
	"parallax/internal/core"
	"parallax/internal/image"
	"parallax/internal/obs"
)

// cmdTrace runs a binary under the emulator with an execution trace
// sink attached and prints the captured events. By default only
// return events flow (the gadget boundaries of a running verification
// chain); -every N adds sampled instruction events. The image comes
// from either a saved .plx file or a freshly protected corpus program
// (-prog); with -prog, -gadgets restricts the stream to returns whose
// target lies inside the program's chain gadgets — the chain's
// golden-trace view.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	prog := fs.String("prog", "", "protect this corpus program (or gen:<family>:<seed>) and trace it (alternative to an image path)")
	workload := fs.String("workload", "idle", "with -prog: stdin profile to drive (-stdin overrides)")
	verify := fs.String("verify", "", "verification function with -prog (default: program's candidate)")
	mode := fs.String("mode", "static", "chain mode with -prog: static|xor|rc4|prob")
	gadgets := fs.Bool("gadgets", false, "with -prog: keep only returns targeting chain gadgets")
	every := fs.Uint64("every", 0, "also emit every Nth instruction (0 = returns only)")
	limit := fs.Int("limit", 256, "max events to capture (0 = unlimited)")
	stdinPath := fs.String("stdin", "", "file to feed as stdin")
	maxInst := fs.Uint64("max", 0, "instruction budget (0 = default)")
	asJSON := fs.Bool("json", false, "print events as JSON instead of text lines")
	metrics := metricsFlags(fs, "print the run's metrics after the events", metricsTable)
	engine := engineFlag(fs, "execution")
	fs.Parse(args)
	withMetrics, metricsFmt, err := metrics()
	if err != nil {
		return err
	}
	eng, err := parseEngine(*engine)
	if err != nil {
		return err
	}

	var img *image.Image
	var prot *core.Protected
	var stdin []byte
	switch {
	case *prog != "":
		if fs.NArg() != 0 {
			return usagef("-prog and an image path are mutually exclusive")
		}
		p, err := resolveProgram(*prog)
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		stdin, err = resolveWorkload(p, *workload)
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		chainMode, err := parseMode(*mode)
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		m := p.Build()
		opts := core.Options{ChainMode: chainMode}
		if *verify != "" {
			if m.Func(*verify) == nil {
				return usagef("no function %q in %s", *verify, p.Name)
			}
			opts.VerifyFuncs = []string{*verify}
		} else {
			opts.VerifyFuncs = []string{p.VerifyFunc}
		}
		prot, err = core.Protect(m, opts)
		if err != nil {
			return fmt.Errorf("protecting %s: %w", p.Name, err)
		}
		img = prot.Image
	case fs.NArg() == 1:
		if *workload != "idle" {
			return usagef("-workload needs -prog (workload profiles belong to corpus programs)")
		}
		var err error
		img, err = image.Load(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("loading image: %w", err)
		}
	default:
		return usagef("need an image path or -prog")
	}
	if *gadgets && prot == nil {
		return usagef("-gadgets needs -prog (gadget ranges come from the protection)")
	}

	if *stdinPath != "" {
		b, err := os.ReadFile(*stdinPath)
		if err != nil {
			return fmt.Errorf("%w: reading -stdin: %w", errUsage, err)
		}
		stdin = b
	}

	cap := &obs.CaptureSink{Max: *limit}
	var sink obs.TraceSink = cap
	if *gadgets {
		sink = &obs.FilterSink{Keep: gadgetRetFilter(prot), Next: cap}
	}
	reg := obs.NewRegistry()
	res := attack.RunWith(context.Background(), img, attack.RunConfig{
		Stdin:      stdin,
		MaxInst:    *maxInst,
		Obs:        reg,
		Trace:      sink,
		TraceEvery: *every,
		Engine:     eng,
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cap.Events); err != nil {
			return err
		}
	} else {
		for _, e := range cap.Events {
			fmt.Println(e)
		}
	}
	fmt.Fprintf(os.Stderr, "captured %d/%d events, status=%d instructions=%d\n",
		len(cap.Events), cap.Total, res.Status, res.Icount)
	if withMetrics {
		if err := writeMetrics(reg, metricsFmt); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if res.Err != nil {
		return fmt.Errorf("execution fault: %w", res.Err)
	}
	return nil
}

// gadgetRetFilter keeps return events whose target is inside one of
// the protection's chain gadgets: the executing verification chain as
// a sequence of gadget entries.
func gadgetRetFilter(prot *core.Protected) func(obs.Event) bool {
	gadgets := prot.ChainGadgets()
	return func(e obs.Event) bool { return e.Kind == obs.EventRet && gadgets.Contains(e.To) }
}
