package dyngen

import (
	"encoding/binary"
	"fmt"

	"parallax/internal/chain"
	"parallax/internal/image"
	"parallax/internal/ir"
	"parallax/internal/ropc"
)

// Mode selects how a function chain is materialized at run time.
type Mode uint8

// Chain generation modes (§V-B, evaluated in §VII-B).
const (
	// ModeStatic installs the chain words directly; no decoder runs.
	ModeStatic Mode = iota
	// ModeXor stores the chain xor-encrypted with a 32-bit key; the
	// decoder decrypts into the chain buffer before every call.
	ModeXor
	// ModeRC4 stores the chain RC4-encrypted with a 16-byte key.
	ModeRC4
	// ModeProb regenerates the chain probabilistically from GF(2)
	// basis-vector index arrays, choosing between N semantically
	// equivalent gadget variants per word on every call.
	ModeProb
)

var modeNames = map[Mode]string{
	ModeStatic: "static", ModeXor: "xor", ModeRC4: "rc4", ModeProb: "prob",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// DefaultVariants is the ModeProb index-array count used when
// Config.N is below 2.
const DefaultVariants = 4

// Config describes dynamic generation for one verification function.
type Config struct {
	Fn   string
	Mode Mode
	// N is the number of index arrays (variant count) for ModeProb;
	// values below 2 mean DefaultVariants.
	N int
	// Seed drives key and basis derivation deterministically.
	Seed uint32
}

func (c Config) withDefaults() Config {
	if c.N < 2 {
		c.N = DefaultVariants
	}
	if c.Seed == 0 {
		c.Seed = 0xA5A5A5A5
	}
	return c
}

// Symbol names for per-function dynamic-generation artifacts.

// DecoderName returns the decoder function symbol.
func (c Config) DecoderName() string { return "..parallax.dec." + c.Fn }

func (c Config) lenSym() string   { return "..parallax.dglen." + c.Fn }
func (c Config) keySym() string   { return "..parallax.dgkey." + c.Fn }
func (c Config) sboxSym() string  { return "..parallax.dgsbox." + c.Fn }
func (c Config) rngSym() string   { return "..parallax.dgrng." + c.Fn }
func (c Config) basisSym() string { return "..parallax.dgbasis." + c.Fn }

// EncSym is the encrypted-chain buffer (ModeXor/ModeRC4).
func (c Config) EncSym() string { return "..parallax.dgenc." + c.Fn }

// OffsSym is the per-(word,variant) offset table (ModeProb).
func (c Config) OffsSym() string { return "..parallax.dgoffs." + c.Fn }

// IdxSym is the index-list byte stream (ModeProb).
func (c Config) IdxSym() string { return "..parallax.dgidx." + c.Fn }

// key returns the mode's key material derived from the seed.
func (c Config) key() []byte {
	n := 4
	if c.Mode == ModeRC4 {
		n = 16
	}
	out := make([]byte, n)
	s := c.Seed | 1
	for i := range out {
		s = xorshift32(s)
		out[i] = byte(s >> 8)
	}
	return out
}

// Inject adds the decoder function and its data to the module. The
// module is modified in place; call once per configuration before
// compiling.
func Inject(m *ir.Module, cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModeStatic {
		return nil
	}
	if m.Func(cfg.DecoderName()) != nil {
		return fmt.Errorf("dyngen: decoder for %q already injected", cfg.Fn)
	}
	mb := moduleAppender{m: m}
	mb.global(&ir.Global{Name: cfg.lenSym(), Init: make([]byte, 4)})
	mb.extern(chain.ChainSym(cfg.Fn))

	switch cfg.Mode {
	case ModeXor:
		mb.global(&ir.Global{Name: cfg.keySym(), Init: cfg.key()})
		mb.extern(cfg.EncSym())
		m.Funcs = append(m.Funcs, buildXorDecoder(cfg))
	case ModeRC4:
		mb.global(&ir.Global{Name: cfg.keySym(), Init: cfg.key()})
		mb.global(&ir.Global{Name: cfg.sboxSym(), Size: 256})
		mb.extern(cfg.EncSym())
		m.Funcs = append(m.Funcs, buildRC4Decoder(cfg))
	case ModeProb:
		basis := NewBasis(cfg.Seed)
		raw := make([]byte, 128)
		for i, v := range basis.Vecs {
			binary.LittleEndian.PutUint32(raw[4*i:], v)
		}
		mb.global(&ir.Global{Name: cfg.basisSym(), Init: raw})
		mb.global(&ir.Global{Name: cfg.rngSym(), Init: make([]byte, 4)})
		mb.extern(cfg.OffsSym())
		mb.extern(cfg.IdxSym())
		m.Funcs = append(m.Funcs, buildProbDecoder(cfg))
	default:
		return fmt.Errorf("dyngen: unknown mode %v", cfg.Mode)
	}
	return ir.Validate(m)
}

type moduleAppender struct{ m *ir.Module }

func (a moduleAppender) global(g *ir.Global) {
	a.m.Globals = append(a.m.Globals, g)
}

func (a moduleAppender) extern(name string) {
	if !a.m.HasExtern(name) {
		a.m.Externs = append(a.m.Externs, name)
	}
}

// Reserve adds the linker-level data buffers whose sizes depend on the
// compiled chain (encrypted copy, offset table, index stream). Sizes of
// zero reserve a minimal placeholder for the first protection pass.
func Reserve(obj *image.Object, cfg Config, chainBytes, offsBytes, idxBytes int) error {
	cfg = cfg.withDefaults()
	clamp := func(n int) uint32 {
		if n <= 0 {
			return 4
		}
		return uint32(n)
	}
	drop := func(name string) {
		for i, d := range obj.Data {
			if d.Name == name {
				obj.Data = append(obj.Data[:i], obj.Data[i+1:]...)
				return
			}
		}
	}
	switch cfg.Mode {
	case ModeStatic:
		return nil
	case ModeXor, ModeRC4:
		drop(cfg.EncSym())
		return obj.AddData(&image.DataSym{
			Name: cfg.EncSym(), Bytes: make([]byte, clamp(chainBytes)), Align: 4,
		})
	case ModeProb:
		drop(cfg.OffsSym())
		drop(cfg.IdxSym())
		if err := obj.AddData(&image.DataSym{
			Name: cfg.OffsSym(), Bytes: make([]byte, clamp(offsBytes)), Align: 4,
		}); err != nil {
			return err
		}
		return obj.AddData(&image.DataSym{
			Name: cfg.IdxSym(), Bytes: make([]byte, clamp(idxBytes)), Align: 4,
		})
	default:
		return fmt.Errorf("dyngen: unknown mode %v", cfg.Mode)
	}
}

// Tables holds the computed runtime data for one chain.
type Tables struct {
	// Enc is the encrypted chain (ModeXor/ModeRC4).
	Enc []byte
	// Offs and Idx are the probabilistic tables (ModeProb).
	Offs []byte
	Idx  []byte
	// VariantsPerWord records |G_i| per chain word (diagnostics and
	// the §V-B variant-count analysis).
	VariantsPerWord []int
}

// BuildTables computes the install-time data for a compiled chain.
func BuildTables(cfg Config, ch *ropc.Chain, env *ropc.Env) (*Tables, error) {
	cfg = cfg.withDefaults()
	plain := ch.Bytes()
	switch cfg.Mode {
	case ModeStatic:
		return &Tables{}, nil
	case ModeXor:
		key := cfg.key()
		enc := make([]byte, len(plain))
		for i, b := range plain {
			enc[i] = b ^ key[i%4]
		}
		return &Tables{Enc: enc}, nil
	case ModeRC4:
		enc := make([]byte, len(plain))
		ks := newRC4(cfg.key())
		for i, b := range plain {
			enc[i] = b ^ ks.next()
		}
		return &Tables{Enc: enc}, nil
	case ModeProb:
		return buildProbTables(cfg, ch, env)
	default:
		return nil, fmt.Errorf("dyngen: unknown mode %v", cfg.Mode)
	}
}

// buildProbTables computes the §V-B index arrays: for each chain word l
// and variant j, the GF(2) decomposition of the j-th interchangeable
// value for that word.
func buildProbTables(cfg Config, ch *ropc.Chain, env *ropc.Env) (*Tables, error) {
	basis := NewBasis(cfg.Seed)
	n := cfg.N
	tb := &Tables{
		Offs:            make([]byte, 4*len(ch.Words)*n),
		VariantsPerWord: make([]int, len(ch.Words)),
	}
	for l, w := range ch.Words {
		// Build the variant value list for this word.
		var values []uint32
		switch w.Kind {
		case ropc.WGadget:
			alts := ropc.Alternatives(env, w)
			if len(alts) == 0 {
				return nil, fmt.Errorf("dyngen: word %d has no compatible gadgets", l)
			}
			for j := 0; j < n; j++ {
				values = append(values, alts[j%len(alts)].Addr)
			}
			tb.VariantsPerWord[l] = len(alts)
		default:
			for j := 0; j < n; j++ {
				values = append(values, w.Value)
			}
			tb.VariantsPerWord[l] = 1
		}
		for j, v := range values {
			off := len(tb.Idx)
			if off > 0xFFFFFF {
				return nil, fmt.Errorf("dyngen: index stream too large")
			}
			binary.LittleEndian.PutUint32(tb.Offs[4*(l*n+j):], uint32(off))
			indices := basis.Decompose(v)
			tb.Idx = append(tb.Idx, byte(len(indices)))
			tb.Idx = append(tb.Idx, indices...)
		}
	}
	return tb, nil
}

// Install writes the chain-length word and mode tables into the linked
// image. For dynamic modes the chain buffer itself stays zero — the
// decoder fills it before the first use.
func Install(img *image.Image, cfg Config, ch *ropc.Chain, tb *Tables) error {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModeStatic {
		sym, err := img.Lookup(chain.ChainSym(cfg.Fn))
		if err != nil {
			return fmt.Errorf("dyngen: install %s: %w", cfg.Fn, err)
		}
		return img.WriteAt(sym.Addr, ch.Bytes())
	}
	lenAt, err := img.Lookup(cfg.lenSym())
	if err != nil {
		return fmt.Errorf("dyngen: install %s: %w", cfg.Fn, err)
	}
	lenWord := make([]byte, 4)
	binary.LittleEndian.PutUint32(lenWord, uint32(len(ch.Words)))
	if err := img.WriteAt(lenAt.Addr, lenWord); err != nil {
		return err
	}
	switch cfg.Mode {
	case ModeXor, ModeRC4:
		enc, err := img.Lookup(cfg.EncSym())
		if err != nil {
			return fmt.Errorf("dyngen: install %s: %w", cfg.Fn, err)
		}
		return img.WriteAt(enc.Addr, tb.Enc)
	case ModeProb:
		offs, err := img.Lookup(cfg.OffsSym())
		if err != nil {
			return fmt.Errorf("dyngen: install %s: %w", cfg.Fn, err)
		}
		if err := img.WriteAt(offs.Addr, tb.Offs); err != nil {
			return err
		}
		idx, err := img.Lookup(cfg.IdxSym())
		if err != nil {
			return fmt.Errorf("dyngen: install %s: %w", cfg.Fn, err)
		}
		return img.WriteAt(idx.Addr, tb.Idx)
	}
	return nil
}

// rc4 is the reference keystream used at install time; the IR decoder
// in buildRC4Decoder implements the identical algorithm.
type rc4State struct {
	s    [256]byte
	i, j uint8
}

func newRC4(key []byte) *rc4State {
	st := &rc4State{}
	for i := 0; i < 256; i++ {
		st.s[i] = byte(i)
	}
	var j uint8
	for i := 0; i < 256; i++ {
		j += st.s[i] + key[i%len(key)]
		st.s[i], st.s[j] = st.s[j], st.s[i]
	}
	return st
}

func (st *rc4State) next() byte {
	st.i++
	st.j += st.s[st.i]
	st.s[st.i], st.s[st.j] = st.s[st.j], st.s[st.i]
	return st.s[uint8(st.s[st.i]+st.s[st.j])]
}
