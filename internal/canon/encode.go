package canon

import (
	"math"
	"reflect"
	"strconv"
)

// append writes v, a struct value whose table is t, to b as
// json.Marshal writes it. It reports false when a value would need
// json.Marshal's escaping or its error: a string that is not printable
// ASCII or holds '"', '\\', '<', '>' or '&', a NaN or an infinity.
func (t *table) append(b []byte, v reflect.Value) ([]byte, bool) {
	b = append(b, '{')
	first := true
	for k := range t.fields {
		f := &t.fields[k]
		fv := v.Field(f.index)
		if f.omitEmpty && empty(fv) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, f.key...)
		var ok bool
		switch f.kind {
		case kindStruct:
			b, ok = f.sub.append(b, fv)
		case kindPtr:
			if fv.IsNil() {
				b, ok = append(b, "null"...), true
			} else {
				b, ok = f.sub.append(b, fv.Elem())
			}
		case kindSlice:
			b, ok = appendSlice(b, f, fv)
		default:
			b, ok = appendBasic(b, f.kind, f.bits, fv)
		}
		if !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// empty is encoding/json's omitempty test for the kinds a table holds.
// A struct is never empty; an empty slice is, nil or not.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// appendSlice writes a slice of a basic kind: null when nil.
func appendSlice(b []byte, f *field, v reflect.Value) ([]byte, bool) {
	if v.IsNil() {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendBasic(b, f.elem, f.bits, v.Index(i)); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendBasic writes one literal of kind k (and size bits).
func appendBasic(b []byte, k kind, bits int, v reflect.Value) ([]byte, bool) {
	switch k {
	case kindBool:
		return strconv.AppendBool(b, v.Bool()), true
	case kindInt:
		return strconv.AppendInt(b, v.Int(), 10), true
	case kindUint:
		return strconv.AppendUint(b, v.Uint(), 10), true
	case kindFloat:
		return appendFloat(b, v.Float(), bits)
	case kindString:
		s := v.String()
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return b, false
			}
		}
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"'), true
	}
	return b, false
}

// appendFloat writes f as encoding/json's float encoder does: the
// shortest repr, in 'e' format outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. NaN and infinities are json.Marshal's
// error.
func appendFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
