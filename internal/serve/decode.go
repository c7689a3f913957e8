package serve

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"

	"seec"
)

// DecodeResult is EncodeResult's inverse: it parses a cached result
// payload. For every input it returns what json.Unmarshal into a zero
// seec.Result returns, the value and the error. The bytes json.Marshal
// writes for a Result whose strings need no escapes take a direct path:
// one pass over a field table built once from the struct types, with
// numbers parsed by strconv as encoding/json parses them. Any other
// input goes to json.Unmarshal.
func DecodeResult(b []byte) (seec.Result, error) {
	if res, ok := decodeFast(b); ok {
		return res, nil
	}
	var res seec.Result
	err := json.Unmarshal(b, &res)
	return res, err
}

// decodeFast parses the canonical form only: the object's fields in
// declaration order (json:"-" fields skipped, omitempty fields possibly
// absent), no whitespace, ASCII strings without escapes, and nothing
// after the closing brace. It reports false for anything else.
func decodeFast(b []byte) (seec.Result, bool) {
	var res seec.Result
	d := decoder{b: b}
	if !d.object(resultFields, reflect.ValueOf(&res).Elem()) || d.i != len(b) {
		return seec.Result{}, false
	}
	return res, true
}

// fieldKind is how the direct path parses a field's value.
type fieldKind uint8

const (
	kindOther fieldKind = iota // not parsed directly: input holding it falls back
	kindBool
	kindInt
	kindUint
	kindFloat
	kindString
	kindStruct
)

// field is one JSON-visible struct field.
type field struct {
	key       string // `"Name":`, as json.Marshal writes it
	index     int
	kind      fieldKind
	bits      int     // kindInt, kindUint, kindFloat: the type's size
	omitEmpty bool    // may be absent from the canonical form
	sub       []field // kindStruct
}

var resultFields = fieldsOf(reflect.TypeFor[seec.Result]())

var (
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// fieldsOf builds t's field table in declaration order. A field whose
// decoding encoding/json customizes (an Unmarshaler, the string
// option, an embedded struct) or whose kind has no direct parser is
// kindOther.
func fieldsOf(t reflect.Type) []field {
	var fs []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if (!sf.IsExported() && !sf.Anonymous) || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		f := field{key: `"` + name + `":`, index: i}
		stringOpt := false
		for _, o := range strings.Split(opts, ",") {
			f.omitEmpty = f.omitEmpty || o == "omitempty"
			stringOpt = stringOpt || o == "string"
		}
		ft := sf.Type
		pt := reflect.PointerTo(ft)
		switch k := ft.Kind(); {
		case sf.Anonymous || stringOpt || pt.Implements(jsonUnmarshaler) || pt.Implements(textUnmarshaler):
			f.kind = kindOther
		case k == reflect.Bool:
			f.kind = kindBool
		case k >= reflect.Int && k <= reflect.Int64:
			f.kind, f.bits = kindInt, ft.Bits()
		case k >= reflect.Uint && k <= reflect.Uintptr:
			f.kind, f.bits = kindUint, ft.Bits()
		case k == reflect.Float32 || k == reflect.Float64:
			f.kind, f.bits = kindFloat, ft.Bits()
		case k == reflect.String:
			f.kind = kindString
		case k == reflect.Struct:
			f.kind, f.sub = kindStruct, fieldsOf(ft)
		}
		fs = append(fs, f)
	}
	return fs
}

// decoder is a cursor over canonical JSON.
type decoder struct {
	b []byte
	i int
}

// object parses `{...}` into v, a struct value whose table is fs.
func (d *decoder) object(fs []field, v reflect.Value) bool {
	if !d.lit("{") {
		return false
	}
	first := true
	for k := range fs {
		f := &fs[k]
		if !d.key(f.key, first) {
			if f.omitEmpty {
				continue
			}
			return false
		}
		if !d.value(f, v.Field(f.index)) {
			return false
		}
		first = false
	}
	return d.lit("}")
}

// key consumes a member's `"Name":`, preceded by a comma unless it is
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
	case kindBool:
		switch {
		case d.lit("true"):
			v.SetBool(true)
		case d.lit("false"):
		default:
			return false
		}
	case kindInt:
		n, err := strconv.ParseInt(string(d.number(true, false)), 10, f.bits)
		if err != nil {
			return false
		}
		v.SetInt(n)
	case kindUint:
		n, err := strconv.ParseUint(string(d.number(false, false)), 10, f.bits)
		if err != nil {
			return false
		}
		v.SetUint(n)
	case kindFloat:
		x, err := strconv.ParseFloat(string(d.number(true, true)), f.bits)
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
	case kindStruct:
		return d.object(f.sub, v)
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
