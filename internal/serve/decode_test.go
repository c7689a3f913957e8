package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"seec"
)

// realPayloads runs small simulations and returns their payloads: a
// plain run, a faulted one and a CI-stopped one, so that every field
// the simulator fills carries a value somewhere.
func realPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	base := seec.DefaultConfig()
	base.Rows, base.Cols, base.Warmup, base.SimCycles, base.Seed = 4, 4, 200, 1000, 11
	faulted := base
	faulted.Faults = "link:0.002"
	stopped := base
	stopped.StopCI = 0.5
	var out [][]byte
	for _, cfg := range []seec.Config{base, faulted, stopped} {
		res, err := seec.RunSyntheticCtx(context.Background(), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, EncodeResult(res))
	}
	return out
}

// checkDecode fails t unless DecodeResult(b) returns what json.Unmarshal
// returns: the same value, and an error exactly when it errs.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	var want seec.Result
	wantErr := json.Unmarshal(b, &want)
	got, err := DecodeResult(b)
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResult(%q) = %+v, %v\njson.Unmarshal: %+v, %v", b, got, err, want, wantErr)
	}
}

// randomize sets each field of the struct v at random: a quarter stay
// zero, so omitempty fields go absent, and the rest take extreme
// numbers and strings, a quarter of them strings that need escaping or
// are not ASCII.
func randomize(rng *rand.Rand, v reflect.Value) {
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 1, 1 << 53}
	floats := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1e-7, 1e21, 0.1}
	plain := []string{"seec", "uniform_random", "link:0.001,router:2@5000", "west-first"}
	special := []string{`a"b`, `c\d`, "tab\t", "<&>", "é", "\xff\xfe", "\u2028", "\x7f"}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() || rng.IntN(4) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			if rng.IntN(2) == 0 {
				f.SetInt(ints[rng.IntN(len(ints))])
			} else {
				f.SetInt(rng.Int64() >> rng.IntN(64))
			}
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> rng.IntN(65))
		case reflect.Float64:
			x := floats[rng.IntN(len(floats))]
			if rng.IntN(2) == 0 {
				x = math.Float64frombits(rng.Uint64())
				if math.IsNaN(x) || math.IsInf(x, 0) {
					x = rng.NormFloat64()
				}
			}
			f.SetFloat(x)
		case reflect.String:
			s := plain[rng.IntN(len(plain))]
			if rng.IntN(4) == 0 {
				s = special[rng.IntN(len(special))]
			}
			f.SetString(s)
		case reflect.Struct:
			randomize(rng, f)
		}
	}
}

// TestDecodeResultMatchesUnmarshal: random Results, encoded as the
// store encodes them, decode to exactly what json.Unmarshal returns.
func TestDecodeResultMatchesUnmarshal(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewPCG(1, 2))
	fast := 0
	for i := 0; i < n; i++ {
		var r seec.Result
		randomize(rng, reflect.ValueOf(&r).Elem())
		b := EncodeResult(r)
		checkDecode(t, b)
		if _, ok := decodeFast(b); ok {
			fast++
		}
	}
	// Escaped strings fall back; the rest must exercise the direct path.
	if fast < n/10 {
		t.Fatalf("only %d of %d payloads took the direct path", fast, n)
	}
}

// fill sets every JSON-visible field of the struct v to a non-zero
// value, and fails t on a kind the direct path does not parse.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !f.CanSet() || sf.Tag.Get("json") == "-" {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(-i - 1))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.String:
			f.SetString(sf.Name)
		case reflect.Struct:
			fill(t, f)
		default:
			t.Fatalf("field %s is a %s, which DecodeResult's direct path does not parse", sf.Name, f.Kind())
		}
	}
}

// TestDecodeResultFastPath: real payloads, and one with every field
// set, take the direct path. A field the direct path cannot parse
// would send every cache hit to json.Unmarshal; this test names it.
func TestDecodeResultFastPath(t *testing.T) {
	var full seec.Result
	fill(t, reflect.ValueOf(&full).Elem())
	for _, b := range append(realPayloads(t), EncodeResult(full)) {
		got, ok := decodeFast(b)
		if !ok {
			t.Fatalf("payload does not take the direct path: %s", b)
		}
		var want seec.Result
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("direct path %+v, json.Unmarshal %+v", got, want)
		}
	}
}

// FuzzDecodeResult: on any bytes, DecodeResult agrees with
// json.Unmarshal on the value and on whether there is an error. The
// seeds are real payloads and edits of them that leave the direct path.
func FuzzDecodeResult(f *testing.F) {
	edits := []struct{ old, new string }{
		{`{"Config":{`, `{ "Config":{`},
		{`"AvgLatency":`, `"avglatency":`},
		{`"AvgLatency":`, `"AvgLatency":1e999,"x":`},
		{`"P50Latency":`, `"P50Latency":1.5,"x":`},
		{`"P99Latency":`, `"P99Latency":99999999999999999999,"x":`},
		{`"MaxLatency":`, `"MaxLatency":007,"x":`},
		{`"Stalled":`, `"Stalled":null,"x":`},
		{`"Seed":`, `"Seed":-1,"x":`},
		{`"Warmup":`, `"Warmup":-0,"x":`},
		{`"InjectionRate":`, `"InjectionRate":1E+2,"x":`},
		{`"Rows":`, `"Rows":2,"Rows":`},
		{`"Pattern":"`, `"Pattern":"\u0041`},
		{`"Scheme":"`, "\"Scheme\":\"\t"},
		{`"Rows":`, `"CheckpointPath":"x","Rows":`},
	}
	for _, p := range realPayloads(f) {
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(append(bytes.Clone(p), '\n'))
		f.Add(append(bytes.Clone(p), '}'))
		for _, e := range edits {
			f.Add(bytes.Replace(p, []byte(e.old), []byte(e.new), 1))
		}
	}
	for _, s := range []string{``, `{}`, `null`, `[]`, `{"Config":{}}`, `{"Config":null}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}

var benchResult seec.Result

// BenchmarkDecodeResult decodes one real payload: "direct" through
// DecodeResult's direct path, "json" through json.Unmarshal.
func BenchmarkDecodeResult(b *testing.B) {
	payload := realPayloads(b)[0]
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := DecodeResult(payload)
			if err != nil {
				b.Fatal(err)
			}
			benchResult = res
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var res seec.Result
			if err := json.Unmarshal(payload, &res); err != nil {
				b.Fatal(err)
			}
			benchResult = res
		}
	})
}
