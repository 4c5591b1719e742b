package chain

import (
	"fmt"
	"strings"

	"parallax/internal/image"
	"parallax/internal/x86"
)

// symPrefix starts the name of every symbol a protection adds: the
// pool, the chain and frame data here, and the dynamic-generation and
// chain-checksum stubs and tables of internal/dyngen.
const symPrefix = "..parallax."

// Owns reports whether name is one of the symbols a protection adds.
func Owns(name string) bool { return strings.HasPrefix(name, symPrefix) }

// ChainSym returns the data symbol holding fn's compiled chain words.
func ChainSym(fn string) string { return symPrefix + "chain." + fn }

// FrameSym returns the data symbol holding fn's chain scratch frame.
func FrameSym(fn string) string { return symPrefix + "frame." + fn }

// LoaderConfig describes the loader stub for one verification
// function.
type LoaderConfig struct {
	// FuncName is the protected function; the loader replaces its
	// body, so every existing call site transparently runs the chain.
	FuncName string
	// NumParams is the function's cdecl argument count.
	NumParams int
	// FrameWords is the scratch frame length in dwords (virtual
	// registers + return slot); the return slot is the last word.
	FrameWords int
	// ExitPtrIndex is the chain word the loader must point back into
	// the caller's stack before each run (§V-A epilogue).
	ExitPtrIndex int
	// Decoder optionally names a decode routine invoked before the
	// pivot. Dynamic chain generation (xor/RC4/probabilistic, §V-B)
	// installs its regeneration stub here; empty means a static chain.
	Decoder string
	// Checker optionally names a routine called before every pivot to
	// checksum the chain words (§VI-C: verification code lives in data
	// memory, so traditional checksumming protects it without Wurster
	// exposure).
	Checker string
}

// Loader builds the x86 stub that bootstraps a chain, per §V-A:
//
//	pushad                          ; save registers
//	[call decoder]                  ; optional dynamic regeneration
//	mov eax, [esp+36+4i]            ; marshal cdecl args
//	mov [frame+4i], eax
//	push offset resume              ; resume address on the stack
//	mov [chain+4*exit], esp         ; patch epilogue pointer (S)
//	mov esp, chain                  ; pivot
//	ret                             ; enter first gadget
//	resume:
//	popad                           ; restore registers
//	mov eax, [frame+ret_slot]       ; chain return value
//	ret
func Loader(cfg LoaderConfig) (*image.Func, error) {
	if cfg.FuncName == "" {
		return nil, fmt.Errorf("chain: loader needs a function name")
	}
	if cfg.FrameWords < cfg.NumParams+1 {
		return nil, fmt.Errorf("chain: frame of %d words cannot hold %d params",
			cfg.FrameWords, cfg.NumParams)
	}
	chainSym := ChainSym(cfg.FuncName)
	frameSym := FrameSym(cfg.FuncName)

	f := &image.Func{Name: cfg.FuncName}
	emit := func(it image.Item) { f.Items = append(f.Items, it) }

	emit(image.InstItem(x86.Inst{Op: x86.PUSHAD, W: 32}))
	if cfg.Decoder != "" {
		emit(image.Item{
			Inst: x86.Inst{Op: x86.CALL, W: 32},
			Ref:  image.Ref{Slot: image.RefTarget, Sym: cfg.Decoder},
		})
	}
	if cfg.Checker != "" {
		emit(image.Item{
			Inst: x86.Inst{Op: x86.CALL, W: 32},
			Ref:  image.Ref{Slot: image.RefTarget, Sym: cfg.Checker},
		})
	}
	// Copy arguments: after pushad (32 bytes) plus the return address,
	// argument i sits at [esp + 36 + 4i].
	for i := 0; i < cfg.NumParams; i++ {
		emit(image.InstItem(x86.Inst{
			Op: x86.MOV, W: 32,
			Dst: x86.RegOp(x86.EAX),
			Src: x86.MemOp(x86.ESP, int32(36+4*i)),
		}))
		emit(image.Item{
			Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(0), Src: x86.RegOp(x86.EAX)},
			Ref:  image.Ref{Slot: image.RefDisp, Sym: frameSym, Add: int32(4 * i)},
		})
	}
	// Stash the resume address and let the chain's final pop-esp find
	// it: the chain's exit word receives the address of the stack slot
	// holding &resume.
	emit(image.Item{
		Inst: x86.Inst{Op: x86.PUSH, W: 32, Dst: x86.ImmOp(0)},
		Ref:  image.Ref{Slot: image.RefImm, Sym: ".resume"},
	})
	emit(image.Item{
		Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.MemAbs(0), Src: x86.RegOp(x86.ESP)},
		Ref:  image.Ref{Slot: image.RefDisp, Sym: chainSym, Add: int32(4 * cfg.ExitPtrIndex)},
	})
	emit(image.Item{
		Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.ESP), Src: x86.ImmOp(0)},
		Ref:  image.Ref{Slot: image.RefImm, Sym: chainSym},
	})
	emit(image.InstItem(x86.Inst{Op: x86.RET, W: 32}))

	// Resume point: restore state and surface the return value.
	emit(image.Item{
		Label: ".resume",
		Inst:  x86.Inst{Op: x86.POPAD, W: 32},
	})
	emit(image.Item{
		Inst: x86.Inst{Op: x86.MOV, W: 32, Dst: x86.RegOp(x86.EAX), Src: x86.MemAbs(0)},
		Ref:  image.Ref{Slot: image.RefDisp, Sym: frameSym, Add: int32(4 * (cfg.FrameWords - 1))},
	})
	emit(image.InstItem(x86.Inst{Op: x86.RET, W: 32}))
	return f, nil
}

// ReserveData adds (or resizes) the chain and frame data symbols for a
// function. Chain words are installed post-link with Install.
func ReserveData(obj *image.Object, fn string, chainBytes, frameWords int) error {
	cs := ChainSym(fn)
	fs := FrameSym(fn)
	for _, name := range []string{cs, fs} {
		for i, d := range obj.Data {
			if d.Name == name {
				obj.Data = append(obj.Data[:i], obj.Data[i+1:]...)
				break
			}
		}
	}
	if err := obj.AddData(&image.DataSym{
		Name:  cs,
		Bytes: make([]byte, chainBytes),
		Align: 4,
	}); err != nil {
		return err
	}
	return obj.AddData(&image.DataSym{
		Name:  fs,
		Bytes: make([]byte, 4*frameWords),
		Align: 4,
	})
}
