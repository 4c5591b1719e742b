package ropc

import (
	"fmt"
	"testing"

	"parallax/internal/chain"
	"parallax/internal/codegen"
	"parallax/internal/gadget"
	"parallax/internal/image"
	"parallax/internal/ir"
)

// gadgetModule builds a module of n chainable functions whose
// immediates carry return-terminated byte sequences, so that codegen's
// text holds gadgets beside the ones its own instructions form: among
// them pops that clobber a second register, which fit some live sets
// and not others.
func gadgetModule(t *testing.T, n int) *ir.Module {
	t.Helper()
	imms := []uint32{
		0xC3415B00, // pop ebx; inc ecx; ret
		0xC3405B00, // pop ebx; inc eax; ret
		0xC3425800, // pop eax; inc edx; ret
		0xC3585B00, // pop ebx; pop eax; ret
		0xC3C18900, // mov ecx,eax; ret
		0xC3D88900, // mov eax,ebx; ret
		0xC3C80100, // add eax,ecx; ret
		0xC3035900, // pop ecx; add eax,[ebx]; ret
	}
	mb := ir.NewModule("gadgets")
	for i := 0; i < n; i++ {
		fb := mb.Func(fmt.Sprintf("g%02d", i), 2)
		acc := fb.Xor(fb.Param(0), fb.Param(1))
		for k := 0; k < 3; k++ {
			imm := imms[(i+k)%len(imms)]
			acc = fb.Add(acc, fb.Const(int32(imm)))
		}
		fb.Ret(fb.Shr(acc, fb.Const(int32(i%7+1))))
	}
	mb.SetEntry("g00")
	return mb.MustBuild()
}

// TestPickMatchesUncachedWalk holds the per-compile gadget memo to the
// catalog walk it caches: every gadget word of every compiled chain
// carries the gadget a fresh compiler's walk returns for the word's
// (spec, live set). The inputs are the pool catalog and a linked
// codegen module of many functions plus the pool, each with a Prefer
// that marks the lower half of the text so that scores both tie and
// differ, compiled as function chains and as µ-chains.
func TestPickMatchesUncachedWalk(t *testing.T) {
	pool, poolImg := poolEnv(t)
	m := gadgetModule(t, 24)
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddPool(obj); err != nil {
		t.Fatal(err)
	}
	img, err := image.Link(obj)
	if err != nil {
		t.Fatal(err)
	}
	mod := &Env{Catalog: gadget.Scan(img)}
	for env, text := range map[*Env]*image.Section{pool: poolImg.Text(), mod: img.Text()} {
		mid := text.Addr + text.Size/2
		env.Prefer = func(g *gadget.Gadget) bool { return g.Addr < mid }
		env.GlobalAddr = func(string) (uint32, bool) { return 0x08100000, true }
	}

	funcs := append([]*ir.Func{sampleModule(t).Func("f")}, m.Funcs[:8]...)

	// picks records, per catalog and spec, the gadget chosen under
	// each live set.
	type envSpec struct {
		env  *Env
		spec Spec
	}
	picks := make(map[envSpec]map[gadget.RegSet]*gadget.Gadget)
	for _, env := range []*Env{pool, mod} {
		for _, f := range funcs {
			for _, opt := range []Options{{}, {Mu: true}} {
				ch, err := CompileWith(f, env, 0x08200000, opt)
				if err != nil {
					t.Fatalf("%s (mu=%v): %v", f.Name, opt.Mu, err)
				}
				for i, w := range ch.Words {
					if w.Kind != WGadget {
						continue
					}
					want, err := (&compiler{env: env}).pickChecked(w.Spec, w.Live)
					if err != nil {
						t.Fatalf("%s word %d: uncached walk: %v", f.Name, i, err)
					}
					if w.Gadget != want {
						t.Fatalf("%s (mu=%v) word %d %v live %v: memo picked %v, walk picks %v",
							f.Name, opt.Mu, i, w.Spec, w.Live, w.Gadget, want)
					}
					k := envSpec{env, w.Spec}
					if picks[k] == nil {
						picks[k] = make(map[gadget.RegSet]*gadget.Gadget)
					}
					picks[k][w.Live] = w.Gadget
				}
			}
		}
	}
	differs := false
	for _, byLive := range picks {
		var first *gadget.Gadget
		for _, g := range byLive {
			if first != nil && g != first {
				differs = true
			}
			first = g
		}
	}
	if !differs {
		t.Error("no spec's pick depends on the live set: the memo key's live half goes untested")
	}
}
