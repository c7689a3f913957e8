package canon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"seec"
	"seec/internal/canon"
	"seec/internal/serve"
)

// checkDecode fails t unless canon.Decode[T](b) returns what
// json.Unmarshal into a zero T returns: the same value and error.
func checkDecode[T any](t *testing.T, b []byte) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(b, &want)
	got, err := canon.Decode[T](b)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v\njson.Unmarshal: %+v, %v", b, got, err, want, wantErr)
	}
}

// checkEncode fails t unless canon.Encode(v) returns what json.Marshal
// returns: the same bytes and error.
func checkEncode[T any](t *testing.T, v T) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := canon.Encode(v)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("Encode(%+v) = %s, %v\njson.Marshal: %s, %v", v, got, err, want, wantErr)
	}
}

var (
	someInts   = []int64{math.MinInt64, math.MaxInt64, -1, 1, 1 << 53}
	someFloats = []float64{
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 1e-310, math.Copysign(0, -1), // smallest normal, a subnormal, -0
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-300, // the lower 'e' cutoff
		1e21, math.Nextafter(1e21, 0), -1e21, 1e300, // the upper one
		0.1, 123456789.125, 1e20,
	}
	nonFinite     = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	plainStrings  = []string{"seec", "uniform_random", "link:0.001,router:2@5000", "j17", "", " !#$%'()*+,-./:;=?@[]^_`{|}~"}
	escapeStrings = []string{`a"b`, `c\d`, "tab\t", "nl\n", "\x00", "\x1f", "<", ">", "&", "é", "\xff\xfe", "\u2028", "\u2029", "\x7f", "日本"}
)

// randomize sets the fields of the struct v at random: a quarter stay
// zero, so omitempty fields go absent, and the rest take extreme
// numbers and strings, a quarter of them strings that json.Marshal
// escapes or that are not ASCII. Pointers to structs are allocated and
// filled, slices are nil, empty or short. With nonFinite, a few floats
// are NaN or infinite.
func randomize(rng *rand.Rand, v reflect.Value, withNonFinite bool) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() || rng.IntN(4) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Func: // Config's instrumentation hooks, json:"-"
		case reflect.Pointer:
			if f.Type().Elem().Kind() == reflect.Struct {
				f.Set(reflect.New(f.Type().Elem()))
				randomize(rng, f.Elem(), withNonFinite)
			}
		case reflect.Slice:
			switch rng.IntN(3) {
			case 0:
				f.Set(reflect.MakeSlice(f.Type(), 0, 0))
			case 1:
				f.Set(reflect.MakeSlice(f.Type(), 1+rng.IntN(5), 8))
				for j := 0; j < f.Len(); j++ {
					randomBasic(rng, f.Index(j), withNonFinite)
				}
			}
		case reflect.Struct:
			randomize(rng, f, withNonFinite)
		default:
			randomBasic(rng, f, withNonFinite)
		}
	}
}

// randomBasic sets v, of a basic kind, to a random extreme value.
func randomBasic(rng *rand.Rand, v reflect.Value, withNonFinite bool) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 0)
	case reflect.Int, reflect.Int64:
		if rng.IntN(2) == 0 {
			v.SetInt(someInts[rng.IntN(len(someInts))])
		} else {
			v.SetInt(rng.Int64() >> rng.IntN(64))
		}
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.IntN(65))
	case reflect.Float64:
		x := someFloats[rng.IntN(len(someFloats))]
		switch {
		case withNonFinite && rng.IntN(50) == 0:
			x = nonFinite[rng.IntN(len(nonFinite))]
		case rng.IntN(2) == 0:
			x = math.Float64frombits(rng.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = rng.NormFloat64()
			}
		}
		v.SetFloat(x)
	case reflect.String:
		s := plainStrings[rng.IntN(len(plainStrings))]
		if rng.IntN(4) == 0 {
			s = escapeStrings[rng.IntN(len(escapeStrings))]
		}
		v.SetString(s)
	default:
		panic("randomBasic: unhandled kind " + v.Kind().String())
	}
}

// checkEncodeRandom encodes n random Ts and reports how many took the
// direct path.
func checkEncodeRandom[T any](t *testing.T, rng *rand.Rand, n int) int {
	fast := 0
	for i := 0; i < n; i++ {
		var v T
		randomize(rng, reflect.ValueOf(&v).Elem(), true)
		checkEncode(t, v)
		if _, ok := canon.EncodeDirect(v); ok {
			fast++
		}
	}
	return fast
}

// TestEncodeMatchesMarshal: random Configs, Results, Records and
// application results encode to json.Marshal's bytes and errors.
func TestEncodeMatchesMarshal(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for name, check := range map[string]func() int{
		"Config":    func() int { return checkEncodeRandom[seec.Config](t, rng, n) },
		"Result":    func() int { return checkEncodeRandom[seec.Result](t, rng, n) },
		"Record":    func() int { return checkEncodeRandom[serve.Record](t, rng, n) },
		"AppResult": func() int { return checkEncodeRandom[seec.AppResult](t, rng, n) },
	} {
		// Escaped strings and non-finite floats fall back; the rest
		// must exercise the direct path.
		if fast := check(); fast < n/20 {
			t.Errorf("%s: only %d of %d values took the direct path", name, fast, n)
		}
	}
}

// TestEncodeEdgeValues: each escaped string, each float at a format
// boundary, -0, subnormals, NaN and the infinities, and empty non-nil
// slices, one at a time.
func TestEncodeEdgeValues(t *testing.T) {
	for _, s := range append(plainStrings, escapeStrings...) {
		cfg := seec.DefaultConfig()
		cfg.Pattern = s
		checkEncode(t, cfg)
		checkEncode(t, serve.Record{Kind: serve.RecJobFail, Err: s})
	}
	for _, x := range append(someFloats, nonFinite...) {
		cfg := seec.DefaultConfig()
		cfg.InjectionRate, cfg.StopCI = x, x
		checkEncode(t, cfg)
		checkEncode(t, seec.AppResult{ClassAvgLatency: []float64{1, x}})
		checkEncode(t, serve.Record{Spec: &serve.JobSpec{Rates: []float64{x}}})
	}
	checkEncode(t, seec.AppResult{ClassAvgLatency: []float64{}})
	checkEncode(t, serve.Record{Spec: &serve.JobSpec{Rates: []float64{}}})
	checkEncode(t, serve.Record{Spec: &serve.JobSpec{}})
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
		randomize(rng, reflect.ValueOf(&r).Elem(), false)
		b := serve.EncodeResult(r)
		checkDecode[seec.Result](t, b)
		if _, ok := canon.DecodeDirect[seec.Result](b); ok {
			fast++
		}
	}
	// Escaped strings fall back; the rest must exercise the direct path.
	if fast < n/10 {
		t.Fatalf("only %d of %d payloads took the direct path", fast, n)
	}
}

// recordEdits are journal payloads off the canonical form, or at its
// edges, that json.Unmarshal still reads or rejects in its own way.
var recordEdits = []string{
	`{"seq":1,"kind":"submit","id":"j1","spec":null}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":[]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":null}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":[0.1,-0,1e-7,2E+3]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":[0.1,]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":[0.1 ,2]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":[1e400]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"rates":["x"]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":{"Rates":[0.1]}}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":[]}`,
	`{"seq":1,"kind":"submit","id":"j1","spec":1}`,
	`{"seq":3,"kind":"run_done","id":"j1","run":-1,"key":"abc"}`,
	`{"seq":3,"kind":"run_done","id":"j1","run":-0,"cached":true}`,
	`{"seq":3,"kind":"run_done","id":"j1","run":1.5}`,
	`{"seq":3,"kind":"run_done","id":"j1","run":99999999999999999999}`,
	`{"seq":4,"kind":"job_done","bogus":1}`,
	`{"seq":5,"seq":6,"kind":"job_done"}`,
	`{"seq":5,"kind":"job_done","kind":"cancel"}`,
	`{"Seq":5,"KIND":"job_done"}`,
	`{"kind":"job_done","seq":1}`,
	`{"seq":1,"kind":"job_fail","err":"a\"b"}`,
	`{"seq":1,"kind":"job_fail","err":"é"}`,
	`{"seq":1,"kind":"cancel","cached":null}`,
	`{"seq":1,"kind":"cancel"} `,
	`{"seq":1,"kind":"cancel",}`,
	`{}`, `null`, `[]`, ``, `{`, `{"seq":`,
}

// TestDecodeMatchesUnmarshal: random Records and application results,
// the edits above, and truncated or byte-edited payloads all decode
// to exactly what json.Unmarshal returns, value and error.
func TestDecodeMatchesUnmarshal(t *testing.T) {
	for _, s := range recordEdits {
		checkDecode[serve.Record](t, []byte(s))
	}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewPCG(5, 6))
	const alphabet = `{}[],:"-0123456789.eEnultrfas \`
	fast := 0
	for i := 0; i < n; i++ {
		var r serve.Record
		randomize(rng, reflect.ValueOf(&r).Elem(), false)
		var a seec.AppResult
		randomize(rng, reflect.ValueOf(&a).Elem(), false)
		rb, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode[serve.Record](t, rb)
		checkDecode[seec.AppResult](t, ab)
		if _, ok := canon.DecodeDirect[serve.Record](rb); ok {
			fast++
		}
		// Off the canonical form: cut, overwrite or insert one byte.
		j := rng.IntN(len(rb))
		c := alphabet[rng.IntN(len(alphabet))]
		checkDecode[serve.Record](t, rb[:j])
		edited := bytes.Clone(rb)
		edited[j] = c
		checkDecode[serve.Record](t, edited)
		checkDecode[serve.Record](t, append(append(bytes.Clone(rb[:j]), c), rb[j:]...))
	}
	if fast < n/10 {
		t.Fatalf("only %d of %d records took the direct path", fast, n)
	}
}

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
		out = append(out, serve.EncodeResult(res))
	}
	return out
}

// journalLines journals one record of every kind through serve's WAL,
// as the gateway writes them, and returns each frame's JSON payload.
func journalLines(tb testing.TB) [][]byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal.log")
	w, _, err := serve.OpenWAL(serve.OSFS{}, path)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := serve.DecodeJobSpec([]byte(`{"scheme":"mseec","rows":4,"cols":4,"vcs_per_vnet":2,"warmup":500,` +
		`"sim_cycles":5000,"seed":3,"rates":[0.02,0.05,0.08],"faults":"link:0.001","stop_ci":0.05,"tenant":"t1"}`))
	if err != nil {
		tb.Fatal(err)
	}
	key := serve.CacheKey(sp.Configs()[0])
	for _, rec := range []serve.Record{
		{Kind: serve.RecSubmit, ID: "j1", Tenant: "t1", Spec: sp},
		{Kind: serve.RecRunDone, ID: "j1", Run: 0, Key: key},
		{Kind: serve.RecRunDone, ID: "j1", Run: 2, Key: key, Cached: true},
		{Kind: serve.RecJobDone, ID: "j1"},
		{Kind: serve.RecJobFail, ID: "j2", Err: "run 1: context deadline exceeded"},
		{Kind: serve.RecCancel, ID: "j3"},
		{Kind: serve.RecSuspend},
	} {
		if _, err := w.Append(rec, false); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, l := range lines {
		lines[i] = l[len("crc32c-h "):]
	}
	return lines
}

// fill sets every JSON-visible field of the struct v to a non-zero
// value, and fails t on a kind the direct path does not handle.
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
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			fill(t, f.Elem())
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			f.Index(1).SetFloat(0.5)
		default:
			t.Fatalf("field %s is a %s, which the direct path does not handle", sf.Name, f.Kind())
		}
	}
}

// checkDirect fails t unless b takes the direct path both ways: it
// decodes directly to json.Unmarshal's value, and that value encodes
// directly back to b.
func checkDirect[T any](t *testing.T, b []byte) {
	t.Helper()
	got, ok := canon.DecodeDirect[T](b)
	if !ok {
		t.Fatalf("%T payload does not decode on the direct path: %s", got, b)
	}
	var want T
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("direct path %+v, json.Unmarshal %+v", got, want)
	}
	if enc, ok := canon.EncodeDirect(got); !ok || !bytes.Equal(enc, b) {
		t.Fatalf("%T does not encode back on the direct path (ok=%v):\n got  %s\n want %s", got, ok, enc, b)
	}
}

// fullPayload is json.Marshal of a T with every field set by fill.
func fullPayload[T any](t *testing.T) []byte {
	var v T
	fill(t, reflect.ValueOf(&v).Elem())
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeResultFastPath: real payloads, and one with every field
// set, take the direct path. A field the direct path cannot parse
// would send every cache hit to json.Unmarshal; this test names it.
func TestDecodeResultFastPath(t *testing.T) {
	for _, b := range append(realPayloads(t), fullPayload[seec.Result](t)) {
		checkDirect[seec.Result](t, b)
	}
}

// TestDirectPath: a real journal frame of each record kind, a real
// Config and a real application result take the direct path, and so
// does each of those types with every field set. A new field of a kind
// the codec does not handle fails here instead of silently sending
// journal replay, cache keys or cache hits to encoding/json.
func TestDirectPath(t *testing.T) {
	for _, line := range journalLines(t) {
		checkDirect[serve.Record](t, line)
	}
	checkDirect[serve.Record](t, fullPayload[serve.Record](t))

	cfg := seec.DefaultConfig()
	cfg.Faults, cfg.StopCI = "link:0.001,router:2@5000", 0.05
	if b, ok := canon.EncodeDirect(cfg); !ok || !bytes.Equal(b, cfg.Canonical()) {
		t.Fatalf("Config does not encode on the direct path (ok=%v): %s", ok, b)
	}
	checkDirect[seec.Config](t, cfg.Canonical())
	checkDirect[seec.Config](t, fullPayload[seec.Config](t))

	app := seec.DefaultConfig()
	app.Rows, app.Cols, app.VCsPerVNet, app.Warmup = 4, 4, 2, 100
	res, err := seec.RunApplicationCtx(context.Background(), app, "canneal", 1000, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClassAvgLatency) == 0 {
		t.Fatal("application run reported no per-class latencies")
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	checkDirect[seec.AppResult](t, b)
	checkDirect[seec.AppResult](t, fullPayload[seec.AppResult](t))
}

// Types whose JSON encoding/json customizes or shapes in ways the
// field table does not describe.
type (
	valueMarshaler struct{ A int }
	ptrMarshaler   struct{ A int }
	textValue      int
	textPtr        int
	valueUnmarshal struct{ A int }
	ptrUnmarshal   struct{ A int }

	embedded  struct{ Inner }
	Inner     struct{ A, B int }
	stringOpt struct {
		N int64 `json:",string"`
	}
	byteSlice   struct{ B []byte }
	mapField    struct{ M map[string]int }
	anyField    struct{ X any }
	numberField struct{ N json.Number }
	recursive   struct{ Next *recursive }
	dupNames    struct {
		A int
		B int `json:"A"` // json keeps the tagged one
	}
	escapedName struct {
		A int `json:"a<b"`
	}
	ptrToInt     struct{ P *int }
	nestedCustom struct{ M valueMarshaler }
	sliceCustom  struct{ S []textValue }
)

func (valueMarshaler) MarshalJSON() ([]byte, error)  { return []byte(`"v"`), nil }
func (*ptrMarshaler) MarshalJSON() ([]byte, error)   { return []byte(`"p"`), nil }
func (textValue) MarshalText() ([]byte, error)       { return []byte("t"), nil }
func (*textPtr) UnmarshalText([]byte) error          { return nil }
func (valueUnmarshal) UnmarshalJSON([]byte) error    { return nil }
func (p *ptrUnmarshal) UnmarshalJSON(b []byte) error { p.A = len(b); return nil }

// TestNotDirect: a type whose encoding encoding/json customizes, with a
// value or a pointer receiver, or whose shape the field table does not
// describe, has no table; Decode and Encode still agree with
// encoding/json on it.
func TestNotDirect(t *testing.T) {
	for name, direct := range map[string]bool{
		"bool":           canon.Direct[bool](),
		"valueMarshaler": canon.Direct[valueMarshaler](),
		"ptrMarshaler":   canon.Direct[ptrMarshaler](),
		"textValue":      canon.Direct[struct{ T textValue }](),
		"textPtr":        canon.Direct[struct{ T textPtr }](),
		"valueUnmarshal": canon.Direct[valueUnmarshal](),
		"ptrUnmarshal":   canon.Direct[ptrUnmarshal](),
		"embedded":       canon.Direct[embedded](),
		"stringOpt":      canon.Direct[stringOpt](),
		"byteSlice":      canon.Direct[byteSlice](),
		"mapField":       canon.Direct[mapField](),
		"anyField":       canon.Direct[anyField](),
		"numberField":    canon.Direct[numberField](),
		"recursive":      canon.Direct[recursive](),
		"dupNames":       canon.Direct[dupNames](),
		"escapedName":    canon.Direct[escapedName](),
		"ptrToInt":       canon.Direct[ptrToInt](),
		"nestedCustom":   canon.Direct[nestedCustom](),
		"sliceCustom":    canon.Direct[sliceCustom](),
	} {
		if direct {
			t.Errorf("%s has a field table", name)
		}
	}

	checkEncode(t, true)
	checkDecode[bool](t, []byte(`true`))
	checkEncode(t, valueMarshaler{A: 1})
	checkEncode(t, ptrMarshaler{A: 1})
	checkEncode(t, struct{ T textValue }{3})
	checkDecode[struct{ T textPtr }](t, []byte(`{"T":"x"}`))
	checkDecode[ptrUnmarshal](t, []byte(`{"A":1}`))
	checkEncode(t, embedded{Inner{1, 2}})
	checkDecode[embedded](t, []byte(`{"A":1,"B":2}`))
	checkEncode(t, stringOpt{N: 5})
	checkDecode[stringOpt](t, []byte(`{"N":"5"}`))
	checkEncode(t, byteSlice{B: []byte("hi")})
	checkDecode[byteSlice](t, []byte(`{"B":"aGk="}`))
	checkEncode(t, numberField{N: "1.5"})
	checkDecode[numberField](t, []byte(`{"N":1.5}`))
	checkEncode(t, recursive{Next: &recursive{}})
	checkDecode[recursive](t, []byte(`{"Next":{"Next":null}}`))
	checkEncode(t, dupNames{A: 1, B: 2})
	checkDecode[dupNames](t, []byte(`{"A":1}`))
	checkEncode(t, escapedName{A: 1})
	checkEncode(t, nestedCustom{})
	checkEncode(t, sliceCustom{S: []textValue{1}})
}

// TestConcurrentUse: goroutines that meet a type at the same time
// share its table; run with -race.
func TestConcurrentUse(t *testing.T) {
	type fresh struct {
		A int
		B []float64
		C *serve.JobSpec
	}
	want, err := json.Marshal(fresh{A: 1, B: []float64{0.5}, C: &serve.JobSpec{Rate: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v, err := canon.Decode[fresh](want)
				if err != nil {
					t.Error(err)
					return
				}
				if b, err := canon.Encode(v); err != nil || !bytes.Equal(b, want) {
					t.Errorf("round trip: %s, %v", b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeRecord: on any bytes, Decode[serve.Record] agrees with
// json.Unmarshal on the value and the error. The seeds are real
// journal lines of every record kind and the edits of
// TestDecodeMatchesUnmarshal.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range journalLines(f) {
		f.Add(line)
		f.Add(line[:len(line)/2])
	}
	for _, s := range recordEdits {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode[serve.Record](t, b)
	})
}

// FuzzEncode: for any strings and numbers, Encode of a Config, a
// Result and a journal record agrees with json.Marshal on the bytes
// and the error, and what it encodes decodes back as json.Unmarshal
// reads it.
func FuzzEncode(f *testing.F) {
	for _, s := range append(plainStrings, escapeStrings...) {
		f.Add(s, 0.05, int64(1000), uint64(7), true, 0.0)
	}
	for _, x := range append(someFloats, nonFinite...) {
		f.Add("seec", x, int64(-1), uint64(math.MaxUint64), false, -x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, u uint64, b bool, y float64) {
		cfg := seec.DefaultConfig()
		cfg.Pattern, cfg.Faults, cfg.InjectionRate, cfg.StopCI = s, s, x, y
		cfg.Warmup, cfg.Seed, cfg.Wormhole = n, u, b
		res := seec.Result{Config: cfg, AvgLatency: y, MaxLatency: n, Stalled: b, CIMean: x}
		rec := serve.Record{Seq: n, Kind: s, ID: s, Run: int(n), Cached: b, Spec: &serve.JobSpec{
			Scheme: s, Rate: x, Rates: []float64{x, y}, Seed: u, Warmup: n, StopCI: y,
		}}
		checkEncode(t, cfg)
		checkEncode(t, res)
		checkEncode(t, rec)
		if enc, err := canon.Encode(rec); err == nil {
			checkDecode[serve.Record](t, enc)
		}
	})
}
