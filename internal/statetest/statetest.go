// Package statetest checks rollback state: a struct whose snapshot must share
// no storage with the live value it was taken from.
package statetest

import (
	"reflect"
	"testing"
	"unsafe"
)

// Scramble overwrites, in place, every value reachable from the struct *p —
// its scalars and everything behind its slice, map and pointer fields,
// unexported ones included. A snapshot that still aliases *p changes with it,
// so a test scrambles the live state, restores, and compares against a state
// built the same way and never touched. A reference field that is nil or empty
// fails t: a fixture that leaves it so could not tell a deep copy from a
// shared one. Struct fields (an embedded part of the state) are held to the
// same rule.
func Scramble(t testing.TB, p any) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	requireFilled(t, v)
	scramble(v)
}

func requireFilled(t testing.TB, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice, reflect.Map:
			if f.Len() == 0 {
				t.Errorf("statetest: the fixture leaves %s.%s empty", v.Type(), v.Type().Field(i).Name)
			}
		case reflect.Pointer:
			if f.IsNil() {
				t.Errorf("statetest: the fixture leaves %s.%s nil", v.Type(), v.Type().Field(i).Name)
			}
		case reflect.Struct:
			requireFilled(t, f)
		}
	}
}

func scramble(v reflect.Value) {
	if v.CanAddr() {
		// Lift the read-only mark reflection puts on unexported fields.
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		if v.Float() == 1 { // x+1 would leave an infinity as it was
			v.SetFloat(2)
		} else {
			v.SetFloat(1)
		}
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scramble(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scramble(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			scramble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scramble(v.Field(i))
		}
	}
}
