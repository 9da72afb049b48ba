package ctrl

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// perturbLeaves calls fn once per leaf field of cfg, walking into
// structs and arrays, with a copy of cfg changed at that leaf alone:
// an integer gains one, a float doubles (zero becomes one). Top-level
// fields named in skip are left out. A leaf of another kind fails the
// test, so a new field cannot slip past unperturbed.
func perturbLeaves[C any](t *testing.T, cfg C, skip map[string]bool, fn func(path string, c C)) {
	t.Helper()
	var walk func(f reflect.Value, path string)
	walk = func(f reflect.Value, path string) {
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				walk(f.Field(i), path+"."+f.Type().Field(i).Name)
			}
			return
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				walk(f.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		}
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch {
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanUint():
			f.SetUint(f.Uint() + 1)
		case f.CanFloat() && f.Float() == 0:
			f.SetFloat(1)
		case f.CanFloat():
			f.SetFloat(2 * f.Float())
		default:
			t.Fatalf("%s: no perturbation for a %v", path, f.Type())
		}
		fn(path, cfg)
		f.Set(old)
	}
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !skip[name] {
			walk(v.Field(i), name)
		}
	}
}

// TestConfigDigestCoversEveryField perturbs each leaf of a Config and
// requires the server built from it to have a different config digest,
// so a checkpoint never resumes under a config that changed any field.
func TestConfigDigestCoversEveryField(t *testing.T) {
	digest := func(cfg Config) []byte {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.configDigest()
	}
	base := DefaultConfig()
	want := digest(base)
	perturbLeaves(t, base, nil, func(path string, cfg Config) {
		if bytes.Equal(digest(cfg), want) {
			t.Errorf("changing %s leaves the config digest unchanged", path)
		}
	})
}
