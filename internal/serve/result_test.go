package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"seec"
	"seec/internal/canon"
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

// checkDecode fails t unless canon.Decode of the result payload b
// returns what json.Unmarshal into a zero seec.Result returns: the
// same value and error.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	var want seec.Result
	wantErr := json.Unmarshal(b, &want)
	got, err := canon.Decode[seec.Result](b)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v\njson.Unmarshal: %+v, %v", b, got, err, want, wantErr)
	}
}

// FuzzDecodeResult: on any bytes, the codec's decoding of a cached
// result payload agrees with json.Unmarshal on the value and the error.
// The seeds are real payloads and edits of them that leave the direct
// path.
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

// BenchmarkDecodeResult decodes one real payload, as a cache hit does:
// "direct" through canon.Decode's direct path, "json" through
// json.Unmarshal.
func BenchmarkDecodeResult(b *testing.B) {
	payload := realPayloads(b)[0]
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := canon.Decode[seec.Result](payload)
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
