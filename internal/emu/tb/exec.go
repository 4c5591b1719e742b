package tb

import (
	"encoding/binary"

	"parallax/internal/emu"
	"parallax/internal/image"
	"parallax/internal/obs"
	"parallax/internal/x86"
)

// ea computes a flattened memory operand's effective address.
func (e *Engine) ea(op *uop) uint32 {
	a := op.disp
	if op.memFlags&memHasBase != 0 {
		a += e.cpu.Reg[op.base]
	}
	if op.memFlags&memHasIndex != 0 {
		a += e.cpu.Reg[op.idx] * uint32(op.scale)
	}
	return a
}

// Fast memory path
//
// The engine keeps three single-entry segment caches — data loads
// (rd), data stores (wr), stack traffic (stk) — so the hot dword
// accessors can touch segment bytes after one bounds check instead of
// walking the full bus (segment lookup, permission check, slice
// carve). Translation marks ESP/EBP-based operands (memStack), which
// the executor routes at the stk cache so frame traffic does not
// thrash the data caches. Only segments whose permissions make the
// access legal and side-effect-free are ever cached: loads need
// PermR; stores need PermW and no PermX, because stores into
// executable segments must reach Memory.Store32 so code-invalidation
// hooks fire. writeDword checks Snapshot's dirty-page arm at store
// time, so a Snapshot taken after the segment was cached still sees
// every write. Segments are never unmapped and Restore copies bytes
// back in place, so a cached pointer cannot go stale. While an
// emu.Recording is attached, no cache holds a segment overlapping the
// recorded span (see recorded): every access to those bytes reaches the
// bus, where the recording marks it.
//
// Cached segments are always at least four bytes long, so the hot
// bounds check is the single unsigned compare
// addr-s.Addr <= len(s.Data)-4 (an address below the segment wraps
// to a huge offset and fails it).

// loadDword reads a little-endian dword from a cached segment; the
// caller has bounds-checked off.
func loadDword(s *emu.Segment, off uint32) uint32 {
	return binary.LittleEndian.Uint32(s.Data[off:])
}

// writeDword stores a little-endian dword into a cached segment,
// keeping Restore's dirty-page tracking; the caller has bounds- and
// permission-checked the access.
func writeDword(s *emu.Segment, off, v uint32) {
	if s.Tracked() {
		s.MarkDirty(off, 4)
	}
	binary.LittleEndian.PutUint32(s.Data[off:], v)
}

// load32 is the out-of-line load path: both caches, then the bus.
func (e *Engine) load32(addr, pc uint32) (uint32, error) {
	if s := e.rd; s != nil && addr-s.Addr <= uint32(len(s.Data))-4 {
		return loadDword(s, addr-s.Addr), nil
	}
	if s := e.stk; s != nil && addr-s.Addr <= uint32(len(s.Data))-4 {
		return loadDword(s, addr-s.Addr), nil
	}
	v, err := e.cpu.Mem.Load32(addr, pc)
	if err == nil {
		if s := e.cpu.Mem.Segment(addr); s != nil && s.Perm&image.PermR != 0 &&
			len(s.Data) >= 4 && !e.recorded(s) {
			e.rd = s
		}
	}
	return v, err
}

// load8 and load16 are the narrow load paths for the byte/word
// micro-ops (movzx/movsx from memory): cached segments first — both
// caches hold PermR segments, so a narrower read is always legal where
// a dword read was — then the bus.
func (e *Engine) load8(addr, pc uint32) (uint32, error) {
	if s := e.rd; s != nil && addr-s.Addr < uint32(len(s.Data)) {
		return uint32(s.Data[addr-s.Addr]), nil
	}
	if s := e.stk; s != nil && addr-s.Addr < uint32(len(s.Data)) {
		return uint32(s.Data[addr-s.Addr]), nil
	}
	v, err := e.cpu.Mem.Load8(addr, pc)
	return uint32(v), err
}

func (e *Engine) load16(addr, pc uint32) (uint32, error) {
	if s := e.rd; s != nil && addr-s.Addr <= uint32(len(s.Data))-2 {
		return uint32(binary.LittleEndian.Uint16(s.Data[addr-s.Addr:])), nil
	}
	if s := e.stk; s != nil && addr-s.Addr <= uint32(len(s.Data))-2 {
		return uint32(binary.LittleEndian.Uint16(s.Data[addr-s.Addr:])), nil
	}
	v, err := e.cpu.Mem.Load16(addr, pc)
	return uint32(v), err
}

// store32 is the out-of-line store path: both caches, then the bus.
func (e *Engine) store32(addr, v, pc uint32) error {
	if s := e.wr; s != nil && addr-s.Addr <= uint32(len(s.Data))-4 {
		writeDword(s, addr-s.Addr, v)
		return nil
	}
	if s := e.stk; s != nil && addr-s.Addr <= uint32(len(s.Data))-4 {
		writeDword(s, addr-s.Addr, v)
		return nil
	}
	err := e.cpu.Mem.Store32(addr, v, pc)
	if err == nil {
		if s := e.cpu.Mem.Segment(addr); s != nil &&
			s.Perm&image.PermW != 0 && s.Perm&image.PermX == 0 &&
			len(s.Data) >= 4 && !e.recorded(s) {
			e.wr = s
		}
	}
	return err
}

// push32 pushes a dword with the interpreter's stack semantics: ESP
// moves before the store and stays moved on a fault. The slow path
// delegates wholesale to CPU.Push32 so fault classification
// (StackOverflowError) is byte-identical; it pins EIP first because
// the interpreter attributes stack faults to the current EIP.
func (e *Engine) push32(v, pc uint32) error {
	c := e.cpu
	sp := c.Reg[x86.ESP] - 4
	if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
		c.Reg[x86.ESP] = sp
		writeDword(s, sp-s.Addr, v)
		return nil
	}
	c.EIP = pc
	err := c.Push32(v)
	if err == nil {
		e.cacheStack(sp)
	}
	return err
}

// pop32 pops a dword; ESP moves only after a successful load.
func (e *Engine) pop32(pc uint32) (uint32, error) {
	c := e.cpu
	sp := c.Reg[x86.ESP]
	if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
		c.Reg[x86.ESP] = sp + 4
		return loadDword(s, sp-s.Addr), nil
	}
	c.EIP = pc
	v, err := c.Pop32()
	if err == nil {
		e.cacheStack(sp)
	}
	return v, err
}

// cacheStack remembers the segment holding sp when both stack
// directions are safe to shortcut: readable and writable, and not
// executable (so a shortcut push can never dodge code invalidation).
func (e *Engine) cacheStack(sp uint32) {
	s := e.cpu.Mem.Segment(sp)
	if s != nil && s.Perm&image.PermR != 0 && s.Perm&image.PermW != 0 &&
		s.Perm&image.PermX == 0 && len(s.Data) >= 4 && !e.recorded(s) {
		e.stk = s
	}
}

// recorded reports whether an emu.Recording is attached to the CPU and
// s overlaps its span: such a segment is never cached.
func (e *Engine) recorded(s *emu.Segment) bool {
	r := e.cpu.Recording()
	return s != nil && r != nil && r.Overlaps(s.Addr, s.End())
}

// dropRecorded empties every segment cache that holds recorded bytes;
// the run entry points call it, so a recording attached after the
// caches were filled still sees every access.
func (e *Engine) dropRecorded() {
	if e.recorded(e.rd) {
		e.rd = nil
	}
	if e.recorded(e.wr) {
		e.wr = nil
	}
	if e.recorded(e.stk) {
		e.stk = nil
	}
}

// alu32 performs one group-80 ALU operation at width 32, recording the
// lazy flag producer. write is false for the compare forms (CMP/TEST),
// which compute flags but discard the result.
func (e *Engine) alu32(sub uint8, a, b uint32) (r uint32, write bool) {
	switch x86.Op(sub) {
	case x86.ADD:
		r = a + b
		e.cc = ccState{kind: ccAdd, dst: a, src: b, res: r}
		return r, true
	case x86.SUB:
		r = a - b
		e.cc = ccState{kind: ccSub, dst: a, src: b, res: r}
		return r, true
	case x86.CMP:
		r = a - b
		e.cc = ccState{kind: ccSub, dst: a, src: b, res: r}
		return r, false
	case x86.AND:
		r = a & b
		e.cc = ccState{kind: ccLogic, res: r}
		return r, true
	case x86.TEST:
		r = a & b
		e.cc = ccState{kind: ccLogic, res: r}
		return r, false
	case x86.OR:
		r = a | b
		e.cc = ccState{kind: ccLogic, res: r}
		return r, true
	default: // x86.XOR
		r = a ^ b
		e.cc = ccState{kind: ccLogic, res: r}
		return r, true
	}
}

// cond evaluates a condition code against the pending flag state,
// taking lazy fast paths for the conditions CMP/SUB/TEST leave behind
// and materializing only for the rare ones (overflow, parity, or
// signed compares after a non-subtract producer).
func (e *Engine) cond(cond x86.Cond) bool {
	cc := &e.cc
	if cc.kind == ccNone {
		return e.cpu.Cond(cond)
	}
	var v bool
	switch cond &^ 1 {
	case x86.CondE:
		v = cc.res == 0
	case x86.CondS:
		v = cc.res>>31 != 0
	case x86.CondB:
		v = e.lazyCF()
	case x86.CondBE:
		v = e.lazyCF() || cc.res == 0
	case x86.CondL:
		if cc.kind != ccSub {
			e.materialize()
			return e.cpu.Cond(cond)
		}
		v = int32(cc.dst) < int32(cc.src)
	case x86.CondLE:
		if cc.kind != ccSub {
			e.materialize()
			return e.cpu.Cond(cond)
		}
		v = int32(cc.dst) <= int32(cc.src)
	default: // CondO, CondP
		e.materialize()
		return e.cpu.Cond(cond)
	}
	if cond&1 != 0 {
		v = !v
	}
	return v
}

// reg8 reads an 8-bit register in ModRM numbering (AL..BL, AH..BH).
func reg8(c *emu.CPU, r x86.Reg) uint32 {
	if r < 4 {
		return c.Reg[r] & 0xFF
	}
	return (c.Reg[r-4] >> 8) & 0xFF
}

// setReg8 writes an 8-bit register in ModRM numbering.
func setReg8(c *emu.CPU, r x86.Reg, v uint32) {
	v &= 0xFF
	if r < 4 {
		c.Reg[r] = c.Reg[r]&^uint32(0xFF) | v
	} else {
		c.Reg[r-4] = c.Reg[r-4]&^uint32(0xFF00) | v<<8
	}
}

// chain follows (or establishes) the successor edge slot of b toward
// target. Returns nil when the target has no live translation yet —
// the dispatcher will look it up or translate next time around.
func (e *Engine) chain(b *block, slot int, target uint32) *block {
	if nb := b.succ[slot]; nb != nil && !nb.dead {
		e.mChainHits.Inc()
		return nb
	}
	if nb := e.blocks[target]; nb != nil {
		b.succ[slot] = nb
		return nb
	}
	return nil
}

// execBlock executes b starting at op index start with no internal
// chaining — the Step path, which needs control back after every
// block (and, with limit = Icount+1, after every op). It publishes
// the retirement counters execOps batches in locals.
func (e *Engine) execBlock(b *block, start int, limit uint64) (*block, error) {
	nb, icount, cycles, err := e.execOps(b, start, limit, 0)
	e.cpu.Icount, e.cpu.Cycles = icount, cycles
	return nb, err
}

// execChain executes b and keeps following chained successors until
// stop instructions have retired (the Run path's poll boundary), the
// chain breaks, or the run ends.
func (e *Engine) execChain(b *block, limit, stop uint64) (*block, error) {
	nb, icount, cycles, err := e.execOps(b, 0, limit, stop)
	e.cpu.Icount, e.cpu.Cycles = icount, cycles
	return nb, err
}

// execOps is the block executor proper. Observable bookkeeping
// replicates CPU.Step exactly, but the hot loop batches it: Icount and
// Cycles accumulate in locals (returned to the wrappers, which publish
// them — and flushed to the CPU before any callout that could read
// them: fallback execution, RetHook, trace sinks), and EIP is written
// only where it is observable — error returns, budget stops, control
// transfers, callouts that read it for fault attribution, and block
// end. Fallback ops add no op.cost; the interpreter core they call
// accounts cycles itself.
//
// Direct control transfers whose successor block is already chained
// continue inside the loop while fewer than stop instructions have
// retired, so straight-run traces cross block boundaries without
// returning to the dispatcher. With an emu.Recording attached, every
// block entry marks the block's code bytes fetched by its first
// instruction. Returns the pending successor block
// (nil when the dispatcher must look up EIP), or errBudget when limit
// instructions have retired and more ops remain.
func (e *Engine) execOps(b *block, start int, limit, stop uint64) (*block, uint64, uint64, error) {
	c := e.cpu
	icount := c.Icount
	cycles := c.Cycles
	// slow gates profile hits and trace sampling behind one predictable
	// branch per op.
	slow := c.ProfileEnabled() || (c.Trace != nil && c.TraceEvery != 0)
	rec := c.Recording()
	var ops []uop
	var precise bool
	var nb *block
	// chained counts internal block-to-block transitions; capped at
	// maxChainBlocks so RunContext regains control (and can poll its
	// context) even inside an endlessly chained hot loop.
	chained := 0

nextBlock:
	if rec != nil && b.fetched != rec {
		rec.Fetched(b.lo, b.hi, icount+1)
		b.fetched = rec
	}
	ops = b.ops
	// precise arms the per-op budget check only when this block could
	// cross the limit; the common case runs the loop without it.
	precise = limit-icount <= uint64(len(ops)-start)
	for i := start; i < len(ops); i++ {
		op := &ops[i]
		if precise && icount >= limit {
			c.EIP = op.pc
			return nil, icount, cycles, errBudget
		}
		icount++
		cycles += uint64(op.cost)
		if slow {
			if c.ProfileEnabled() {
				c.ProfileHit(op.pc)
			}
			if c.Trace != nil && c.TraceEvery != 0 && icount%c.TraceEvery == 0 {
				c.Trace.Emit(obs.Event{Kind: obs.EventInst, Icount: icount, PC: op.pc})
			}
		}

		switch op.kind {
		case opMovRR:
			c.Reg[op.r1] = c.Reg[op.r2]
		case opMovRI:
			c.Reg[op.r1] = op.imm
		case opMovRM:
			a := e.ea(op)
			s := e.rd
			if op.memFlags&memStack != 0 {
				s = e.stk
			}
			if s != nil && a-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[op.r1] = loadDword(s, a-s.Addr)
				break
			}
			v, err := e.load32(a, op.pc)
			if err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
			c.Reg[op.r1] = v
		case opMovMR:
			a := e.ea(op)
			s := e.wr
			if op.memFlags&memStack != 0 {
				s = e.stk
			}
			if s != nil && a-s.Addr <= uint32(len(s.Data))-4 {
				writeDword(s, a-s.Addr, c.Reg[op.r2])
				break
			}
			if err := e.store32(a, c.Reg[op.r2], op.pc); err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
		case opMovMI:
			a := e.ea(op)
			s := e.wr
			if op.memFlags&memStack != 0 {
				s = e.stk
			}
			if s != nil && a-s.Addr <= uint32(len(s.Data))-4 {
				writeDword(s, a-s.Addr, op.imm)
				break
			}
			if err := e.store32(a, op.imm, op.pc); err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
		case opMovMR8:
			a := e.ea(op)
			v := byte(reg8(c, op.r2))
			s := e.wr
			if op.memFlags&memStack != 0 {
				s = e.stk
			}
			if s != nil && a-s.Addr < uint32(len(s.Data)) {
				// Cached segments are writable and never executable, so a
				// direct byte write only needs the dirty-page bookkeeping.
				if s.Tracked() {
					s.MarkDirty(a-s.Addr, 1)
				}
				s.Data[a-s.Addr] = v
				break
			}
			if err := c.Mem.Store8(a, v, op.pc); err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}

		case opAluRR:
			if r, w := e.alu32(op.alu, c.Reg[op.r1], c.Reg[op.r2]); w {
				c.Reg[op.r1] = r
			}
		case opAluRI:
			if r, w := e.alu32(op.alu, c.Reg[op.r1], op.imm); w {
				c.Reg[op.r1] = r
			}
		case opAluRM:
			a := e.ea(op)
			s := e.rd
			if op.memFlags&memStack != 0 {
				s = e.stk
			}
			var v uint32
			if s != nil && a-s.Addr <= uint32(len(s.Data))-4 {
				v = loadDword(s, a-s.Addr)
			} else {
				var err error
				if v, err = e.load32(a, op.pc); err != nil {
					c.EIP = op.pc
					return nil, icount, cycles, err
				}
			}
			if r, w := e.alu32(op.alu, c.Reg[op.r1], v); w {
				c.Reg[op.r1] = r
			}
		case opAluMR, opAluMI:
			a := e.ea(op)
			v, err := e.load32(a, op.pc)
			if err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
			src := op.imm
			if op.kind == opAluMR {
				src = c.Reg[op.r2]
			}
			if r, w := e.alu32(op.alu, v, src); w {
				if err := e.store32(a, r, op.pc); err != nil {
					c.EIP = op.pc
					return nil, icount, cycles, err
				}
			}

		case opIncR:
			cf := e.lazyCF() // INC preserves CF
			a := c.Reg[op.r1]
			r := a + 1
			e.cc = ccState{kind: ccInc, dst: a, res: r, saved: cf}
			c.Reg[op.r1] = r
		case opDecR:
			cf := e.lazyCF()
			a := c.Reg[op.r1]
			r := a - 1
			e.cc = ccState{kind: ccDec, dst: a, res: r, saved: cf}
			c.Reg[op.r1] = r
		case opNotR:
			c.Reg[op.r1] = ^c.Reg[op.r1] // NOT sets no flags
		case opNegR:
			a := c.Reg[op.r1]
			r := -a
			// NEG is SUB 0-a: subFlags(0, a) gives CF = a != 0 exactly.
			e.cc = ccState{kind: ccSub, dst: 0, src: a, res: r}
			c.Reg[op.r1] = r

		case opPushR:
			// Value first: PUSH ESP pushes the pre-decrement ESP, so the
			// source register must be read before the stack pointer moves.
			v := c.Reg[op.r1]
			sp := c.Reg[x86.ESP] - 4
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp
				writeDword(s, sp-s.Addr, v)
				break
			}
			if err := e.push32(v, op.pc); err != nil {
				return nil, icount, cycles, err
			}
		case opPushI:
			sp := c.Reg[x86.ESP] - 4
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp
				writeDword(s, sp-s.Addr, op.imm)
				break
			}
			if err := e.push32(op.imm, op.pc); err != nil {
				return nil, icount, cycles, err
			}
		case opPushM:
			// Operand read first, then the push — a faulting load leaves
			// ESP unmoved, exactly as the interpreter's readOp ordering.
			v, err := e.load32(e.ea(op), op.pc)
			if err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
			if err := e.push32(v, op.pc); err != nil {
				return nil, icount, cycles, err
			}
		case opPopR:
			sp := c.Reg[x86.ESP]
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp + 4
				c.Reg[op.r1] = loadDword(s, sp-s.Addr)
				break
			}
			v, err := e.pop32(op.pc)
			if err != nil {
				return nil, icount, cycles, err
			}
			c.Reg[op.r1] = v
		case opLea:
			c.Reg[op.r1] = e.ea(op)
		case opExt:
			var v uint32
			if op.w == 8 {
				v = reg8(c, op.r2)
				if op.alu == extSigned && v&0x80 != 0 {
					v |= 0xFFFFFF00
				}
			} else {
				v = c.Reg[op.r2] & 0xFFFF
				if op.alu == extSigned && v&0x8000 != 0 {
					v |= 0xFFFF0000
				}
			}
			c.Reg[op.r1] = v
		case opExtM:
			a := e.ea(op)
			var v uint32
			var err error
			if op.w == 8 {
				v, err = e.load8(a, op.pc)
			} else {
				v, err = e.load16(a, op.pc)
			}
			if err != nil {
				c.EIP = op.pc
				return nil, icount, cycles, err
			}
			if op.alu == extSigned {
				if op.w == 8 && v&0x80 != 0 {
					v |= 0xFFFFFF00
				} else if op.w == 16 && v&0x8000 != 0 {
					v |= 0xFFFF0000
				}
			}
			c.Reg[op.r1] = v
		case opShiftRI:
			af := e.lazyAF() // shifts leave AF untouched
			a := c.Reg[op.r1]
			count := op.imm
			var r uint32
			var kind ccKind
			switch op.alu {
			case shiftShr:
				r = a >> count
				kind = ccShr
			case shiftSar:
				r = uint32(int32(a) >> count)
				kind = ccSar
			default:
				r = a << count
				kind = ccShl
			}
			e.cc = ccState{kind: kind, dst: a, src: count, res: r, saved: af}
			c.Reg[op.r1] = r
		case opShiftRC:
			count := c.Reg[x86.ECX] & 31
			if count == 0 {
				// The interpreter returns before writing anything: no
				// result write, every flag (and the pending cc state, which
				// still describes the last producer) untouched.
				break
			}
			af := e.lazyAF()
			a := c.Reg[op.r1]
			var r uint32
			var kind ccKind
			switch op.alu {
			case shiftShr:
				r = a >> count
				kind = ccShr
			case shiftSar:
				r = uint32(int32(a) >> count)
				kind = ccSar
			default:
				r = a << count
				kind = ccShl
			}
			e.cc = ccState{kind: kind, dst: a, src: count, res: r, saved: af}
			c.Reg[op.r1] = r
		case opXchgRR:
			c.Reg[op.r1], c.Reg[op.r2] = c.Reg[op.r2], c.Reg[op.r1]
		case opSetccR:
			v := uint32(0)
			if e.cond(x86.Cond(op.alu)) {
				v = 1
			}
			setReg8(c, op.r1, v)
		case opImulRR, opImulRM:
			var a uint32
			if op.kind == opImulRR {
				a = c.Reg[op.r2]
			} else {
				var err error
				if a, err = e.load32(e.ea(op), op.pc); err != nil {
					c.EIP = op.pc
					return nil, icount, cycles, err
				}
			}
			m := c.Reg[op.r1]
			if op.alu == imulImm {
				m = op.imm
			}
			r := int64(int32(a)) * int64(int32(m))
			// Flags are eager here: CF/OF need the full 64-bit product,
			// which the cc triple cannot carry. AF is the one flag IMUL
			// leaves alone, so it is resolved from the pending state
			// before that state is cleared.
			c.AF = e.lazyAF()
			e.cc.kind = ccNone
			lo := uint32(r)
			c.Reg[op.r1] = lo
			c.CF = r != int64(int32(lo))
			c.OF = c.CF
			c.ZF = lo == 0
			c.SF = lo>>31 != 0
			c.PF = parity8(lo)
		case opLeave:
			c.Reg[x86.ESP] = c.Reg[x86.EBP]
			sp := c.Reg[x86.ESP]
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp + 4
				c.Reg[x86.EBP] = loadDword(s, sp-s.Addr)
				break
			}
			v, err := e.pop32(op.pc)
			if err != nil {
				// ESP already moved to EBP — the interpreter faults with
				// the frame torn down the same way.
				return nil, icount, cycles, err
			}
			c.Reg[x86.EBP] = v
		case opNop:

		case opFallback:
			e.materialize()
			c.EIP = op.pc
			c.Icount, c.Cycles = icount, cycles
			if err := c.ExecInst(*op.inst); err != nil {
				return nil, c.Icount, c.Cycles, err
			}
			cycles = c.Cycles
		case opFallbackTerm:
			e.materialize()
			c.EIP = op.pc
			c.Icount, c.Cycles = icount, cycles
			if err := c.ExecInst(*op.inst); err != nil {
				return nil, c.Icount, c.Cycles, err
			}
			// Control continues wherever the interpreter left EIP
			// (syscall return, HLT error already taken above, ...).
			return nil, c.Icount, c.Cycles, nil

		case opJmp:
			c.EIP = op.target
			if c.ExitTo(op.target) {
				return nil, icount, cycles, nil
			}
			nb = e.chain(b, 0, op.target)
			if nb != nil && icount < stop && chained < maxChainBlocks {
				chained++
				b, start = nb, 0
				goto nextBlock
			}
			return nb, icount, cycles, nil
		case opJcc:
			// JCC does not check the exit sentinel (mirroring the
			// interpreter), so both edges chain unconditionally.
			if e.cond(x86.Cond(op.alu)) {
				c.EIP = op.target
				nb = e.chain(b, 1, op.target)
			} else {
				c.EIP = b.end
				nb = e.chain(b, 0, b.end)
			}
			if nb != nil && icount < stop && chained < maxChainBlocks {
				chained++
				b, start = nb, 0
				goto nextBlock
			}
			return nb, icount, cycles, nil
		case opCallD:
			sp := c.Reg[x86.ESP] - 4
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp
				writeDword(s, sp-s.Addr, op.imm)
			} else if err := e.push32(op.imm, op.pc); err != nil {
				return nil, icount, cycles, err
			}
			c.EIP = op.target
			if c.ExitTo(op.target) {
				return nil, icount, cycles, nil
			}
			nb = e.chain(b, 0, op.target)
			if nb != nil && icount < stop && chained < maxChainBlocks {
				chained++
				b, start = nb, 0
				goto nextBlock
			}
			return nb, icount, cycles, nil
		case opJmpIndR, opJmpIndM, opCallIndR, opCallIndM:
			var target uint32
			switch op.kind {
			case opJmpIndR, opCallIndR:
				target = c.Reg[op.r1]
			default:
				v, err := e.load32(e.ea(op), op.pc)
				if err != nil {
					c.EIP = op.pc
					return nil, icount, cycles, err
				}
				target = v
			}
			if op.kind == opCallIndR || op.kind == opCallIndM {
				if err := e.push32(op.imm, op.pc); err != nil {
					return nil, icount, cycles, err
				}
			}
			c.EIP = target
			c.ExitTo(target)
			return nil, icount, cycles, nil
		case opRet:
			sp := c.Reg[x86.ESP]
			var ret uint32
			if s := e.stk; s != nil && sp-s.Addr <= uint32(len(s.Data))-4 {
				c.Reg[x86.ESP] = sp + 4
				ret = loadDword(s, sp-s.Addr)
			} else {
				var err error
				if ret, err = e.pop32(op.pc); err != nil {
					return nil, icount, cycles, err
				}
			}
			c.Reg[x86.ESP] += op.imm
			if c.RetHook != nil || c.Trace != nil {
				c.Icount, c.Cycles = icount, cycles
				if c.RetHook != nil {
					c.RetHook(op.pc, ret)
				}
				if c.Trace != nil {
					c.Trace.Emit(obs.Event{Kind: obs.EventRet, Icount: icount, PC: op.pc, To: ret})
				}
			}
			c.EIP = ret
			c.ExitTo(ret)
			return nil, icount, cycles, nil
		}

		// A store this op made may have hit this very block (mid-block
		// self-modification). The invalidation hook marked it dead; stop
		// so the dispatcher retranslates the fresh bytes.
		if b.dead {
			if i+1 < len(ops) {
				c.EIP = ops[i+1].pc
			} else {
				c.EIP = b.end
			}
			return nil, icount, cycles, nil
		}
	}
	c.EIP = b.end
	return nil, icount, cycles, nil
}
