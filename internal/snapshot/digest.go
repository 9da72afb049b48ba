package snapshot

import (
	"fmt"
	"reflect"
)

// Digest encodes a config value for Decoder.CheckDigest. It walks a
// struct's fields in declaration order and an array element by
// element, recursing into nested structs and arrays, and writes each
// signed integer as I64, each unsigned one as U64 and each float as
// F64 — the fixed 8-byte words a hand-written digest would list. A
// field tagged `snapshot:"-"` is skipped. Any other kind panics: a
// config that holds a string, slice, map or pointer says what it
// means by it before it joins a digest.
//
// The walk is reflective because a digest is derived from its config,
// so no hand list can miss a field that a later change adds. A digest
// is only ever compared, never decoded, so the payload codec stays
// reflection-free.
func Digest(v any) []byte {
	var e Encoder
	digestValue(&e, reflect.ValueOf(v))
	return e.Bytes()
}

func digestValue(e *Encoder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.U64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.F64(v.Float())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			digestValue(e, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).Tag.Get("snapshot") != "-" {
				digestValue(e, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("snapshot: Digest cannot encode a %s", v.Type()))
	}
}
