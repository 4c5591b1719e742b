package main

import (
	"flag"
	"strings"

	"parallax/internal/emu"
)

// defaultEngine is the backend every command runs when -engine is not
// given. The translation-block engine is the default: it is
// differentially tested in lockstep against the interpreter, produces
// byte-identical campaign detection matrices (ci.sh gates on that),
// and its shared translation catalog makes MiB-scale campaigns
// severalfold faster (EXPERIMENTS.md).
const defaultEngine = emu.TB

// engineFlag registers the -engine flag on fs with the shared default
// and a usage string derived from emu.Engines. context describes what
// the engine is used for in this command (e.g. "mutant execution").
func engineFlag(fs *flag.FlagSet, context string) *string {
	return fs.String("engine", string(defaultEngine),
		context+" backend: "+engineUsage())
}

func engineUsage() string {
	names := make([]string, len(emu.Engines))
	for i, e := range emu.Engines {
		names[i] = string(e)
	}
	return strings.Join(names, "|")
}

// parseEngine validates a parsed -engine value.
func parseEngine(v string) (emu.Engine, error) {
	e := emu.Engine(v)
	if e.Validate() != nil {
		return "", usagef("bad -engine %q (want %s)", v, engineUsage())
	}
	return e, nil
}
