package canon

import (
	"reflect"
	"strconv"
)

// decoder is a cursor over canonical JSON. Its methods report false on
// anything outside the canonical form, and the caller then falls back
// to json.Unmarshal.
type decoder struct {
	b []byte
	i int
}

// object parses `{...}` into v, a struct value whose table is t. The
// members are a subsequence of t's fields, in order: an absent field
// stays zero, as json.Unmarshal leaves it.
func (d *decoder) object(t *table, v reflect.Value) bool {
	if !d.lit("{") {
		return false
	}
	first := true
	for k := range t.fields {
		f := &t.fields[k]
		if !d.key(f.key, first) {
			continue
		}
		if !d.value(f, v.Field(f.index)) {
			return false
		}
		first = false
	}
	return d.lit("}")
}

// key consumes a member's `"name":`, preceded by a comma unless it is
// the object's first member.
func (d *decoder) key(k string, first bool) bool {
	j := d.i
	if !first {
		if j >= len(d.b) || d.b[j] != ',' {
			return false
		}
		j++
	}
	if len(d.b)-j < len(k) || string(d.b[j:j+len(k)]) != k {
		return false
	}
	d.i = j + len(k)
	return true
}

// lit consumes s.
func (d *decoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// value parses f's value into v. Whatever follows the value is checked
// by the caller, which expects a comma or a closing brace.
func (d *decoder) value(f *field, v reflect.Value) bool {
	switch f.kind {
	case kindStruct:
		return d.object(f.sub, v)
	case kindPtr:
		if d.lit("null") {
			return true // v is a zero T's field: already nil
		}
		p := reflect.New(v.Type().Elem())
		if !d.object(f.sub, p.Elem()) {
			return false
		}
		v.Set(p)
		return true
	case kindSlice:
		return d.slice(f, v)
	}
	return d.basic(f.kind, f.bits, v)
}

// slice parses null or `[e,...]` into v, a nil slice of a basic kind.
// An empty array makes an empty non-nil slice, as json.Unmarshal does.
func (d *decoder) slice(f *field, v reflect.Value) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("[") {
		return false
	}
	v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	for n := 0; !d.lit("]"); n++ {
		if n > 0 && !d.lit(",") {
			return false
		}
		if n == v.Cap() {
			v.Grow(max(n, 4))
		}
		v.SetLen(n + 1)
		if !d.basic(f.elem, f.bits, v.Index(n)) {
			return false
		}
	}
	return true
}

// basic parses one literal of kind k (and size bits) into v, with
// numbers parsed by strconv as encoding/json parses them.
func (d *decoder) basic(k kind, bits int, v reflect.Value) bool {
	switch k {
	case kindBool:
		switch {
		case d.lit("true"):
			v.SetBool(true)
		case d.lit("false"):
		default:
			return false
		}
	case kindInt:
		n, err := strconv.ParseInt(string(d.number(true, false)), 10, bits)
		if err != nil {
			return false
		}
		v.SetInt(n)
	case kindUint:
		n, err := strconv.ParseUint(string(d.number(false, false)), 10, bits)
		if err != nil {
			return false
		}
		v.SetUint(n)
	case kindFloat:
		x, err := strconv.ParseFloat(string(d.number(true, true)), bits)
		if err != nil {
			return false
		}
		v.SetFloat(x)
	case kindString:
		s, ok := d.str()
		if !ok {
			return false
		}
		v.SetString(s)
	default:
		return false
	}
	return true
}

// number consumes the longest JSON number at the cursor — an optional
// minus (when signed), an integer part without leading zeros and, when
// frac, a fraction and an exponent — and returns it, or nil when there
// is none. A number that stops early leaves the cursor on a byte the
// caller rejects.
func (d *decoder) number(signed, frac bool) []byte {
	start := d.i
	if signed && d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return nil
	}
	if frac {
		if d.i < len(d.b) && d.b[d.i] == '.' {
			d.i++
			if d.digits() == 0 {
				return nil
			}
		}
		if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
			d.i++
			if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
				d.i++
			}
			if d.digits() == 0 {
				return nil
			}
		}
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// str consumes a string of printable ASCII without escapes.
func (d *decoder) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return string(d.b[start : d.i-1]), true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return "", false
		}
	}
	return "", false
}
