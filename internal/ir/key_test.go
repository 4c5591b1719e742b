package ir

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func keyOf(t *testing.T, m *Module) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := m.WriteKey(h); err != nil {
		t.Fatal(err)
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// keySample sets every field of every IR struct to a non-zero value,
// so each can be perturbed on its own. It need not be valid IR:
// WriteKey encodes fields, it does not interpret them.
func keySample() *Module {
	return &Module{
		Name:  "mod",
		Entry: "main",
		Funcs: []*Func{{
			Name: "main", NumParams: 1, NumVals: 9,
			Blocks: []*Block{{
				Name: "entry",
				Insts: []Inst{
					{Kind: OpCall, Dst: 1, A: 2, B: 3, Imm: 4, Bin: Xor, Pred: Ge,
						Global: "g", Callee: "f", Args: []Value{5, 6}},
					{Kind: OpSyscall, Dst: 7, A: 1, B: 2, Imm: 1, Bin: Shl, Pred: Ne,
						Global: "h", Callee: "k", Args: []Value{8}},
				},
				Term: Term{Kind: TermBr, Val: 1, HasVal: true, Then: "then", Else: "else"},
			}},
		}},
		Globals: []*Global{{Name: "g", Init: []byte{1, 2, 3}, Size: 8, ReadOnly: true}},
		Externs: []string{"ext", "ern"},
	}
}

// keyFields is the field count of each IR struct WriteKey encodes.
var keyFields = map[reflect.Type]int{
	reflect.TypeOf(Module{}): 5,
	reflect.TypeOf(Func{}):   4,
	reflect.TypeOf(Block{}):  3,
	reflect.TypeOf(Inst{}):   10,
	reflect.TypeOf(Term{}):   5,
	reflect.TypeOf(Global{}): 4,
}

// TestWriteKeyFieldCount fails when an IR struct gains or loses a
// field: WriteKey, keySample and keyFields must follow.
func TestWriteKeyFieldCount(t *testing.T) {
	for typ, n := range keyFields {
		if typ.NumField() != n {
			t.Errorf("ir.%s has %d fields, the key encoding knows %d: encode the change in WriteKey and set it in keySample",
				typ.Name(), typ.NumField(), n)
		}
	}
}

// TestWriteKeyCoversEveryField perturbs each field of the sample —
// every scalar, every slice element and every slice length — one at a
// time, and requires each perturbation to change the key.
func TestWriteKeyCoversEveryField(t *testing.T) {
	m := keySample()
	base := keyOf(t, m)
	seen := make(map[string]bool)
	changed := func(path string) {
		if keyOf(t, m) == base {
			t.Errorf("changing %s left the key unchanged", path)
		}
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				seen[v.Type().Name()+"."+name] = true
				walk(v.Field(i), path+"."+name)
			}
		case reflect.Slice:
			old := v.Slice(0, v.Len())
			v.Set(v.Slice(0, v.Len()-1))
			changed(path + " length")
			v.Set(old)
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		default:
			old := reflect.New(v.Type()).Elem()
			old.Set(v)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int32:
				v.SetInt(v.Int() + 1)
			case reflect.Uint8, reflect.Uint32:
				v.SetUint(v.Uint() + 1)
			default:
				t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
			}
			changed(path)
			v.Set(old)
		}
	}
	walk(reflect.ValueOf(m), "Module")
	want := 0
	for typ, n := range keyFields {
		want += n
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Name() + "." + typ.Field(i).Name; !seen[f] {
				t.Errorf("keySample never reaches %s", f)
			}
		}
	}
	if len(seen) != want {
		t.Errorf("walk reached %d fields, keyFields lists %d", len(seen), want)
	}
	if keyOf(t, m) != base {
		t.Fatal("the walk did not restore the sample")
	}
}

// TestWriteKeyBoundaries: moving content across the boundary between
// two adjacent encoded values changes the key.
func TestWriteKeyBoundaries(t *testing.T) {
	insts := func(m *Module) []Inst { return m.Funcs[0].Blocks[0].Insts }
	pairs := []struct {
		name string
		a, b func(*Module)
	}{
		{"module name/entry",
			func(m *Module) { m.Name, m.Entry = "ab", "c" },
			func(m *Module) { m.Name, m.Entry = "a", "bc" }},
		{"inst global/callee",
			func(m *Module) { insts(m)[0].Global, insts(m)[0].Callee = "ab", "c" },
			func(m *Module) { insts(m)[0].Global, insts(m)[0].Callee = "a", "bc" }},
		{"term then/else",
			func(m *Module) { m.Funcs[0].Blocks[0].Term.Then, m.Funcs[0].Blocks[0].Term.Else = "ab", "c" },
			func(m *Module) { m.Funcs[0].Blocks[0].Term.Then, m.Funcs[0].Blocks[0].Term.Else = "a", "bc" }},
		{"args across instructions",
			func(m *Module) { insts(m)[0].Args, insts(m)[1].Args = []Value{1, 2}, []Value{3} },
			func(m *Module) { insts(m)[0].Args, insts(m)[1].Args = []Value{1}, []Value{2, 3} }},
		{"externs",
			func(m *Module) { m.Externs = []string{"ab", "c"} },
			func(m *Module) { m.Externs = []string{"a", "bc"} }},
		{"init bytes vs size",
			func(m *Module) { m.Globals[0].Init, m.Globals[0].Size = []byte{0, 0, 0, 0}, 0 },
			func(m *Module) { m.Globals[0].Init, m.Globals[0].Size = nil, 4 }},
	}
	for _, p := range pairs {
		a, b := keySample(), keySample()
		p.a(a)
		p.b(b)
		if keyOf(t, a) == keyOf(t, b) {
			t.Errorf("%s: both splits share a key", p.name)
		}
	}
}

// TestWriteKeyClone: a clone shares its original's key, including when
// the original holds empty rather than nil slices.
func TestWriteKeyClone(t *testing.T) {
	for _, m := range []*Module{buildFib(t), keySample()} {
		if keyOf(t, m) != keyOf(t, m.Clone()) {
			t.Errorf("%s: clone changed the key", m.Name)
		}
	}
	m := keySample()
	m.Funcs[0].Blocks[0].Insts[1].Args = []Value{}
	m.Globals[0].Init = []byte{}
	m.Externs = []string{}
	if keyOf(t, m) != keyOf(t, m.Clone()) {
		t.Error("empty slices and their nil clones encode differently")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

func TestWriteKeyReportsWriteError(t *testing.T) {
	if err := keySample().WriteKey(failWriter{}); err == nil {
		t.Error("WriteKey swallowed the writer's error")
	}
}
