package farm

import (
	"bytes"
	"reflect"
	"testing"

	"parallax/internal/core"
	"parallax/internal/corpus"
	"parallax/internal/dyngen"
)

// keyExcluded lists the core.Options fields jobKey leaves out, each
// with why it cannot change the output bytes.
var keyExcluded = map[string]string{
	"ScanFunc": "scanner hook, observationally identical to gadget.Rescan",
	"Hints":    "seeds the fixpoint, which still verifies convergence",
	"Obs":      "instrumentation only",
}

// nonZero sets v, a zero value of any non-struct type, to a non-zero
// value.
func nonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		nonZero(t, v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("no non-zero value for kind %s", v.Kind())
	}
}

// TestJobKeyCoversOptions: setting any output-affecting core.Options
// field — each field of a struct-typed one separately — changes the
// job key, and setting an excluded field does not. A new Options field
// fails here until jobKey encodes it or keyExcluded names it. Seed and
// ProbVariants are perturbed from a ModeProb base: static chains read
// neither, so static options normalize both away.
func TestJobKeyCoversOptions(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	prob := core.Options{ChainMode: dyngen.ModeProb}
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		_, excluded := keyExcluded[f.Name]
		check := func(name string, from core.Options, set func(reflect.Value)) {
			opts := from
			set(reflect.ValueOf(&opts).Elem().Field(i))
			switch changed := jobKey(m, opts) != jobKey(m, from); {
			case excluded && changed:
				t.Errorf("%s is excluded from the job key but changes it", name)
			case !excluded && !changed:
				t.Errorf("setting %s leaves the job key unchanged", name)
			}
		}
		switch {
		case f.Type.Kind() == reflect.Struct:
			for j := 0; j < f.Type.NumField(); j++ {
				check(f.Name+"."+f.Type.Field(j).Name, core.Options{}, func(v reflect.Value) { nonZero(t, v.Field(j)) })
			}
		case f.Name == "ProbVariants":
			// 1 means the same as 0 (both normalize to
			// dyngen.DefaultVariants); 3 is a distinct variant count.
			check(f.Name, prob, func(v reflect.Value) { v.SetInt(3) })
		case f.Name == "Seed":
			check(f.Name, prob, func(v reflect.Value) { nonZero(t, v) })
		default:
			check(f.Name, core.Options{}, func(v reflect.Value) { nonZero(t, v) })
		}
	}
	for name := range keyExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("keyExcluded names %s, which core.Options no longer has", name)
		}
	}
}

// TestJobKeyNormalizesOptions: options core.Protect treats alike get
// one key — PoolCopies 0 and 2, and Seed and ProbVariants under static
// chains, protect gzip to the same bytes; in ModeProb ProbVariants 0, 1
// and the default 4 are one variant count, and outside ModeProb no
// variant count is read. Options that do reach the output keep
// distinct keys.
func TestJobKeyNormalizesOptions(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}}
	pool2 := opts
	pool2.PoolCopies = 2
	seeded := opts
	seeded.Seed, seeded.ProbVariants = 7, 3
	var want struct{ img, base []byte }
	for i, o := range []core.Options{opts, pool2, seeded} {
		if jobKey(m, o) != jobKey(m, opts) {
			t.Errorf("static options %d: job key differs from the defaults", i)
		}
		prot, err := core.Protect(m, o)
		if err != nil {
			t.Fatal(err)
		}
		img, base := imageBytes(t, prot.Image), imageBytes(t, prot.Baseline)
		if i == 0 {
			want.img, want.base = img, base
			continue
		}
		if !bytes.Equal(img, want.img) || !bytes.Equal(base, want.base) {
			t.Errorf("static options %d: gzip protects to different bytes than the defaults", i)
		}
	}

	with := func(mode dyngen.Mode, seed uint32, n int) key {
		o := opts
		o.ChainMode, o.Seed, o.ProbVariants = mode, seed, n
		return jobKey(m, o)
	}
	for _, n := range []int{1, dyngen.DefaultVariants} {
		if with(dyngen.ModeProb, 0, n) != with(dyngen.ModeProb, 0, 0) {
			t.Errorf("ModeProb: ProbVariants %d and 0 got different job keys", n)
		}
	}
	if with(dyngen.ModeXor, 7, 0) == with(dyngen.ModeXor, 8, 0) {
		t.Error("ModeXor: Seed 7 and 8 got one job key")
	}
	if with(dyngen.ModeXor, 7, 3) != with(dyngen.ModeXor, 7, 0) {
		t.Error("ModeXor: ProbVariants 3 and 0 got different job keys")
	}
	if with(dyngen.ModeProb, 7, 3) == with(dyngen.ModeProb, 7, 4) {
		t.Error("ModeProb: ProbVariants 3 and 4 got one job key")
	}
}

// TestJobKeyModuleContent: the key follows module content, not module
// identity.
func TestJobKeyModuleContent(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}}
	k := jobKey(m, opts)
	if jobKey(m.Clone(), opts) != k || jobKey(p.Build(), opts) != k {
		t.Error("equal modules got different job keys")
	}
	m.Globals[0].Init = append([]byte{0xFF}, m.Globals[0].Init...)
	if jobKey(m, opts) == k {
		t.Error("changing a global's initial bytes left the job key unchanged")
	}
}
