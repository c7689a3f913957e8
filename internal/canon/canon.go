// Package canon is the codec for the canonical JSON this program writes
// and reads back: journal records, the semantic Config behind every
// cache key and checkpoint hash, cached results and memoized
// measurements.
//
// Decode returns what json.Unmarshal into a zero T returns, and Encode
// what json.Marshal returns, value and error, for every input. The
// canonical form takes a direct path over a field table built once per
// type: the object's fields in declaration order, no whitespace, ASCII
// strings without escapes, numbers as json.Marshal prints them. Any
// other input, and any type the table cannot describe, goes to
// encoding/json.
//
// The package imports nothing from the simulator, so the root package,
// the gateway and the planner can all use it.
package canon

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
)

// Decode parses b into a T. The canonical form takes the direct path;
// anything else goes to json.Unmarshal.
func Decode[T any](b []byte) (T, error) {
	if v, ok := decodeDirect[T](b); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// Encode renders v as json.Marshal does. A value whose strings and
// floats print without escapes or errors takes the direct path; any
// other goes to json.Marshal.
func Encode[T any](v T) ([]byte, error) {
	if b, ok := encodeDirect(&v); ok {
		return b, nil
	}
	return json.Marshal(v)
}

// decodeDirect parses the canonical form of a T, and reports false for
// anything else.
func decodeDirect[T any](b []byte) (T, bool) {
	var v T
	t := tableOf(reflect.TypeFor[T]())
	if t == nil {
		return v, false
	}
	d := decoder{b: b}
	ok := d.object(t, reflect.ValueOf(&v).Elem()) && d.i == len(b)
	return v, ok
}

// encodeDirect writes v's canonical form, and reports false when v's
// type has no table or a value needs json.Marshal's escaping or error.
func encodeDirect[T any](v *T) ([]byte, bool) {
	t := tableOf(reflect.TypeFor[T]())
	if t == nil {
		return nil, false
	}
	return t.append(make([]byte, 0, t.size), reflect.ValueOf(v).Elem())
}

// kind is how the direct path handles a value.
type kind uint8

const (
	kindBool kind = iota + 1
	kindInt
	kindUint
	kindFloat
	kindString
	kindStruct // sub
	kindPtr    // pointer to struct: sub, null when nil
	kindSlice  // slice of a basic kind: elem, null when nil
)

// field is one JSON-visible struct field.
type field struct {
	key       string // `"name":`, as json.Marshal writes it
	index     int
	kind      kind
	elem      kind   // kindSlice: the element's kind
	bits      int    // kindInt, kindUint, kindFloat, or such an elem: the size
	omitEmpty bool   // json.Marshal leaves the field out when empty
	sub       *table // kindStruct, kindPtr
}

// table is a struct type's fields in declaration order.
type table struct {
	fields []field
	size   int // initial encode buffer capacity
}

// tables caches tableOf per type; a nil entry means "not direct".
var tables sync.Map // reflect.Type -> *table

// tableOf returns t's field table, or nil when t is not direct.
func tableOf(t reflect.Type) *table {
	if v, ok := tables.Load(t); ok {
		return v.(*table)
	}
	tab := build(t, map[reflect.Type]bool{})
	v, _ := tables.LoadOrStore(t, tab)
	return v.(*table)
}

var (
	jsonMarshaler   = reflect.TypeFor[json.Marshaler]()
	textMarshaler   = reflect.TypeFor[encoding.TextMarshaler]()
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
	jsonNumber      = reflect.TypeFor[json.Number]()
)

// custom reports whether encoding/json customizes t's encoding or
// decoding, through a method with a value or a pointer receiver.
func custom(t reflect.Type) bool {
	if t == jsonNumber {
		return true
	}
	for _, u := range []reflect.Type{t, reflect.PointerTo(t)} {
		if u.Implements(jsonMarshaler) || u.Implements(textMarshaler) ||
			u.Implements(jsonUnmarshaler) || u.Implements(textUnmarshaler) {
			return true
		}
	}
	return false
}

// basic classifies a type the direct path reads and writes as one JSON
// literal, with its size for numbers. It returns 0 for anything else.
func basic(t reflect.Type) (kind, int) {
	if custom(t) {
		return 0, 0
	}
	switch k := t.Kind(); {
	case k == reflect.Bool:
		return kindBool, 0
	case k >= reflect.Int && k <= reflect.Int64:
		return kindInt, t.Bits()
	case k >= reflect.Uint && k <= reflect.Uintptr:
		return kindUint, t.Bits()
	case k == reflect.Float32 || k == reflect.Float64:
		return kindFloat, t.Bits()
	case k == reflect.String:
		return kindString, 0
	}
	return 0, 0
}

// build makes t's table, or returns nil when some JSON-visible field
// (recursively) is of a kind the direct path does not handle: an
// embedded struct, the string option, a customized type, a byte slice,
// a map, an interface, a recursive type. seen holds the struct types
// being built.
func build(t reflect.Type, seen map[reflect.Type]bool) *table {
	if t.Kind() != reflect.Struct || custom(t) || seen[t] {
		return nil
	}
	seen[t] = true
	defer delete(seen, t)
	tab := &table{size: 2}
	names := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil // json promotes its fields
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		if !plainName(name) || names[name] {
			return nil // json would escape, rename or drop it
		}
		names[name] = true
		f := field{key: `"` + name + `":`, index: i}
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "omitempty":
				f.omitEmpty = true
			case "string", "omitzero":
				return nil
			}
		}
		ft := sf.Type
		f.kind, f.bits = basic(ft)
		switch {
		case f.kind != 0:
		case custom(ft):
			return nil
		case ft.Kind() == reflect.Struct:
			f.kind, f.sub = kindStruct, build(ft, seen)
		case ft.Kind() == reflect.Pointer:
			f.kind, f.sub = kindPtr, build(ft.Elem(), seen)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() != reflect.Uint8:
			f.kind = kindSlice
			if f.elem, f.bits = basic(ft.Elem()); f.elem == 0 {
				return nil
			}
		default:
			return nil
		}
		if (f.kind == kindStruct || f.kind == kindPtr) && f.sub == nil {
			return nil
		}
		tab.size += len(f.key) + 8
		if f.sub != nil {
			tab.size += f.sub.size
		}
		tab.fields = append(tab.fields, f)
	}
	return tab
}

// plainName reports whether a JSON member name needs no escaping and
// no validity check: letters, digits, '_' and '-'.
func plainName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range []byte(s) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}
