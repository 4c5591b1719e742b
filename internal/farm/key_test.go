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
	"ScanFunc":  "scanner hook, observationally identical to gadget.Rescan",
	"Hints":     "seeds the fixpoint, which still verifies convergence",
	"Obs":       "instrumentation only",
	"Engine":    "AutoSelect's profiling backend; the engines select alike",
	"TBCatalog": "shares translations between engines, not what they run",
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
// fails here until jobKey encodes it or keyExcluded names it.
func TestJobKeyCoversOptions(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	base := jobKey(m, core.Options{})
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		_, excluded := keyExcluded[f.Name]
		check := func(name string, set func(reflect.Value)) {
			var opts core.Options
			set(reflect.ValueOf(&opts).Elem().Field(i))
			switch changed := jobKey(m, opts) != base; {
			case excluded && changed:
				t.Errorf("%s is excluded from the job key but changes it", name)
			case !excluded && !changed:
				t.Errorf("setting %s leaves the job key unchanged", name)
			}
		}
		if f.Type.Kind() == reflect.Struct {
			for j := 0; j < f.Type.NumField(); j++ {
				check(f.Name+"."+f.Type.Field(j).Name, func(v reflect.Value) { nonZero(t, v.Field(j)) })
			}
			continue
		}
		if f.Name == "ProbVariants" {
			// 1 means the same as 0 (both normalize to
			// dyngen.DefaultVariants); 3 is a distinct variant count.
			check(f.Name, func(v reflect.Value) { v.SetInt(3) })
			continue
		}
		check(f.Name, func(v reflect.Value) { nonZero(t, v) })
	}
	for name := range keyExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("keyExcluded names %s, which core.Options no longer has", name)
		}
	}
}

// TestJobKeyNormalizesOptions: options core.Protect treats alike get
// one key — PoolCopies 0 and 2 protect gzip to the same bytes, and in
// ModeProb ProbVariants 0, 1 and the default 4 are one variant count.
func TestJobKeyNormalizesOptions(t *testing.T) {
	p, err := corpus.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	opts := core.Options{VerifyFuncs: []string{p.VerifyFunc}}
	pool2 := opts
	pool2.PoolCopies = 2
	if jobKey(m, opts) != jobKey(m, pool2) {
		t.Error("PoolCopies 0 and 2 got different job keys")
	}
	var imgs [2][]byte
	for i, o := range []core.Options{opts, pool2} {
		prot, err := core.Protect(m, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := prot.Image.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		imgs[i] = buf.Bytes()
	}
	if !bytes.Equal(imgs[0], imgs[1]) {
		t.Error("PoolCopies 0 and 2 protect gzip to different images")
	}

	prob := core.Options{VerifyFuncs: []string{p.VerifyFunc}, ChainMode: dyngen.ModeProb}
	want := jobKey(m, prob)
	for _, n := range []int{1, dyngen.DefaultVariants} {
		o := prob
		o.ProbVariants = n
		if jobKey(m, o) != want {
			t.Errorf("ProbVariants %d and 0 got different job keys", n)
		}
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
