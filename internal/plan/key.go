package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"seec"
	"seec/internal/serve"
)

// Cache-key provenance. Every payload the planner stores is addressed
// by a 64-hex SHA-256 content key compatible with the PR 9 result
// store (serve.ValidKey), and every key mixes in
// serve.ResultFormatVersion so a payload-format bump invalidates the
// whole family of derived keys at once. Four key spaces exist:
//
//	seec-result/v1   ordinary runs — exactly serve.CacheKey, so a
//	                 sweep point planned here shares its cache entry
//	                 with the same point submitted to the seecd
//	                 gateway (pinned by TestPlannerKeyParity).
//	seec-forked/v1   warmup-shared fork members. A forked run's
//	                 measurement phase starts from the family's shared
//	                 warm state and seed, so its bytes differ from an
//	                 independent run of the same echoed config —
//	                 aliasing the two spaces would serve the wrong
//	                 sampling plan.
//	seec-app/v1      application-trace runs, keyed by the config plus
//	                 the workload identity (app name, transaction
//	                 count, cycle budget).
//	seec-meas/v1     derived measurements (deadlock probes, drain
//	                 studies) that are functions of a run but not
//	                 seec.Result payloads; the measurement name keys
//	                 the derivation.
//
// Every space hashes the config's Config.Canonical bytes, the encoding
// CheckpointHash hashes too.

// Key returns the content address of a job's result: serve.CacheKey of
// the configuration the job will actually execute (seed derived first
// when the job asks for it). Family members of a warmup-shared batch
// are addressed by forkKey instead — see Planner.Run.
func Key(j Job) string {
	return serve.CacheKey(j.exec())
}

// forkKey addresses the result of one warmup-shared fork member: the
// family's base configuration (which carries the shared warmup rate
// and the shared "warmup-share" seed) plus the member's own injection
// rate. Hashed over the exact float bits so distinct rates never
// collide.
func forkKey(base seec.Config, rate float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "seec-forked/v%d\n", serve.ResultFormatVersion)
	h.Write(base.Canonical())
	fmt.Fprintf(h, "\nrate=%016x\n", math.Float64bits(rate))
	return hex.EncodeToString(h.Sum(nil))
}

// AppKey addresses an application-trace run: the semantic config plus
// the workload identity that RunApplicationCtx takes alongside it.
func AppKey(cfg seec.Config, app string, txns, maxCycles int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "seec-app/v%d\n%s\n%d %d\n", serve.ResultFormatVersion, app, txns, maxCycles)
	h.Write(cfg.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// MeasKey addresses a derived measurement: a named deterministic
// function of one run's configuration. The name must identify the
// measurement procedure (including any constants baked into it) — two
// procedures reading the same config need distinct names.
func MeasKey(name string, cfg seec.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "seec-meas/v%d\n%s\n", serve.ResultFormatVersion, name)
	h.Write(cfg.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// familyKey groups jobs that agree on everything except injection
// rate: the canonical config with the rate zeroed. Seed is the
// pre-derivation base seed here (members of one sweep share it), so
// two sweeps with different base seeds never share a family.
func familyKey(cfg seec.Config) string {
	cfg.InjectionRate = 0
	return string(cfg.Canonical())
}
