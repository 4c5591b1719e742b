// The Wurster et al. split instruction-/data-cache attack, head to
// head against the two protection schemes (§VI/§IX):
//
//   - classic self-checksumming detects a static crack but is defeated
//     completely when the patch is applied through the split-cache
//     view (checksums read pristine bytes, the CPU executes the
//     patch);
//   - Parallax never reads code as data — its verification chain
//     *executes* the protected bytes through the very fetch path the
//     attack controls, so the tampering derails the chain.
//
// This example reaches below the public API into the internal attack
// and baseline packages, since it compares protection engines.
//
//	go run ./examples/wurster
package main

import (
	"context"
	"fmt"
	"log"

	"parallax/internal/attack"
	"parallax/internal/baseline/checksum"
	"parallax/internal/core"
	"parallax/internal/emu"
	"parallax/internal/ir"
)

// buildTarget returns the victim: a license validator guarding the
// exit status (7 = licensed, 13 = refused).
func buildTarget() *ir.Module {
	mb := ir.NewModule("victim")
	mb.Global("key", []byte{0x21, 0x43, 0x65, 0x87})

	fb := mb.Func("validate", 0)
	k := fb.Load(fb.Addr("key", 0))
	acc := fb.Copy(k)
	i := fb.Const(0)
	fb.Jmp("head")
	fb.Block("head")
	lim := fb.Const(16)
	c := fb.Cmp(ir.ULt, i, lim)
	fb.Br(c, "body", "done")
	fb.Block("body")
	seven := fb.Const(7)
	fb.Assign(acc, fb.Xor(fb.Mul(acc, seven), i))
	one := fb.Const(1)
	fb.Assign(i, fb.Add(i, one))
	fb.Jmp("head")
	fb.Block("done")
	zero := fb.Const(0)
	fb.Ret(fb.Cmp(ir.Ne, acc, zero))

	fb = mb.Func("main", 0)
	r := fb.Call("validate")
	zero2 := fb.Const(0)
	ok := fb.Cmp(ir.Ne, r, zero2)
	fb.Br(ok, "licensed", "refused")
	fb.Block("licensed")
	fb.Ret(fb.Const(7))
	fb.Block("refused")
	fb.Ret(fb.Const(13))
	mb.SetEntry("main")
	return mb.MustBuild()
}

func main() {
	crack := []byte{0xB8, 0x01, 0x00, 0x00, 0x00, 0xC3} // mov eax,1; ret

	fmt.Println("== victim protected by a cross-verifying checksum network ==")
	cs, err := checksum.Protect(buildTarget())
	if err != nil {
		log.Fatal(err)
	}
	sym := cs.Image.MustSymbol("validate")

	static := cs.Image.Clone()
	if err := attack.PatchBytes(static, sym.Addr, crack); err != nil {
		log.Fatal(err)
	}
	res := attack.Run(context.Background(), static, nil)
	fmt.Printf("static crack:        status=%d (tamper response is %d)\n",
		res.Status, checksum.TamperStatus)

	cpu, err := emu.LoadImage(cs.Image)
	if err != nil {
		log.Fatal(err)
	}
	cpu.OS = emu.NewOS(nil)
	attack.Wurster(cpu, sym.Addr, crack) // fetches see the crack; reads do not
	if err := cpu.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split-cache crack:   status=%d", cpu.Status)
	if cpu.Status == 7 {
		fmt.Println("  <- DEFEATED: runs as licensed, checksums all pass")
	} else {
		fmt.Println()
	}

	fmt.Println("\n== same victim protected by Parallax ==")
	prot, err := core.Protect(buildTarget(), core.Options{VerifyFuncs: []string{"validate"}})
	if err != nil {
		log.Fatal(err)
	}
	clean := attack.Run(context.Background(), prot.Image, nil)
	fmt.Printf("clean run:           status=%d\n", clean.Status)

	g := prot.Chains["validate"].Gadgets()[0]
	cpu2, err := emu.LoadImage(prot.Image)
	if err != nil {
		log.Fatal(err)
	}
	cpu2.OS = emu.NewOS(nil)
	attack.Wurster(cpu2, g.Addr, []byte{0xCC})
	runErr := cpu2.Run()
	fmt.Printf("split-cache tamper:  status=%d err=%v\n", cpu2.Status, runErr)
	if runErr != nil || cpu2.Status != clean.Status {
		fmt.Println("  <- detected: the chain fetched (and executed) the tampered gadget")
	}
}
