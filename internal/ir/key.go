package ir

import (
	"encoding/binary"
	"io"
)

// WriteKey writes a binary encoding of every field of the module to w,
// for content-addressed caches that hash a module (internal/farm keys
// protection jobs with it). Two modules encode alike exactly when all
// their fields are equal: strings and byte slices are length-prefixed,
// integers fixed-width and every list carries its count, so no value
// can run into its neighbour. Nil and empty slices encode alike, so
// m and m.Clone() share a key.
//
// The encoding is not a file format: it lives only in memory and may
// change between versions. A field added to Module, Func, Block, Inst,
// Term or Global must be added here too.
//
// Output is staged in one buffer that is flushed whenever it fills, so
// a hash sees a few large writes rather than one per field.
func (m *Module) WriteKey(w io.Writer) error {
	e := keyEncoder{w: w, buf: make([]byte, 0, keyChunk)}
	e.str(m.Name)
	e.str(m.Entry)
	e.int(len(m.Funcs))
	for _, f := range m.Funcs {
		e.str(f.Name)
		e.int(f.NumParams)
		e.int(f.NumVals)
		e.int(len(f.Blocks))
		for _, b := range f.Blocks {
			e.str(b.Name)
			e.int(len(b.Insts))
			for i := range b.Insts {
				e.inst(&b.Insts[i])
				e.flushFull()
			}
			e.term(&b.Term)
		}
	}
	e.int(len(m.Globals))
	for _, g := range m.Globals {
		e.str(g.Name)
		e.bytes(g.Init)
		e.u32(g.Size)
		e.bool(g.ReadOnly)
	}
	e.int(len(m.Externs))
	for _, s := range m.Externs {
		e.str(s)
	}
	e.flush()
	return e.err
}

// keyChunk is the staging buffer's flush threshold.
const keyChunk = 32 << 10

type keyEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *keyEncoder) inst(in *Inst) {
	e.u8(uint8(in.Kind))
	e.value(in.Dst)
	e.value(in.A)
	e.value(in.B)
	e.u32(uint32(in.Imm))
	e.u8(uint8(in.Bin))
	e.u8(uint8(in.Pred))
	e.str(in.Global)
	e.str(in.Callee)
	e.int(len(in.Args))
	for _, a := range in.Args {
		e.value(a)
	}
}

func (e *keyEncoder) term(t *Term) {
	e.u8(uint8(t.Kind))
	e.value(t.Val)
	e.bool(t.HasVal)
	e.str(t.Then)
	e.str(t.Else)
}

func (e *keyEncoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *keyEncoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *keyEncoder) int(v int)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *keyEncoder) value(v Value) { e.int(int(v)) }

func (e *keyEncoder) str(s string) {
	e.int(len(s))
	e.buf = append(e.buf, s...)
}

func (e *keyEncoder) bytes(b []byte) {
	e.int(len(b))
	e.buf = append(e.buf, b...)
	e.flushFull()
}

func (e *keyEncoder) bool(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// flushFull flushes the staging buffer once it has reached keyChunk.
func (e *keyEncoder) flushFull() {
	if len(e.buf) >= keyChunk {
		e.flush()
	}
}

func (e *keyEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}
