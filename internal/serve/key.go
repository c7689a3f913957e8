package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"seec"
)

// ResultFormatVersion versions the cached result payload. It
// participates in the cache key, so a change to what a result blob
// means (new fields with different semantics, changed encoding)
// MUST bump it — old blobs then simply miss instead of being
// misinterpreted. Adding a semantic Config field also changes every
// key (the canonical JSON grows a field), which is the safe direction:
// the cache splits rather than aliasing two different experiments.
const ResultFormatVersion = 1

// resultKeyPrefix opens every hashed result key.
var resultKeyPrefix = fmt.Sprintf("seec-result/v%d\n", ResultFormatVersion)

// CacheKey is the canonical content address of one run's result: the
// SHA-256 of the result format version and the run's Config.Canonical
// bytes, the encoding CheckpointHash hashes too. Operational fields
// (checkpoint paths, instrumentation, telemetry) are excluded by the
// Config's own JSON contract, so everything that can change result
// bytes participates: scheme, routing, topology shape, VC shape, seed,
// traffic pattern and rate, cycle counts, the fault spec, StopCI. Two
// configs with equal keys produce byte-identical result payloads; two
// with different semantics get different keys.
func CacheKey(cfg seec.Config) string {
	var buf [1024]byte // holds the hashed bytes of any ordinary Config
	sum := sha256.Sum256(append(append(buf[:0], resultKeyPrefix...), cfg.Canonical()...))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// EncodeResult renders a result as the canonical cached payload:
// deterministic single-line JSON. Both the store writer and the
// crash-restart identity checks go through this one function, so
// "byte-identical results" means equality of these bytes.
func EncodeResult(res seec.Result) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		panic("serve: encode result: " + err.Error())
	}
	return b
}
