package main

import "fmt"

// goldens are the result digests of the default seed, one per
// workload: SHA-256 over the encoded results each workload's digest
// covers (see the workload files). A change meant only to speed the
// simulator up must leave every one of them unchanged; a change that
// alters simulated behaviour on purpose re-records them.
var goldens = map[string]string{
	"run-16x16":   "4ad555c336a8f06b14b83677528ee29653cf8573321298d6b42da13c121b5c4c",
	"sweep-cold":  "a69eef079dc0dd68152f073671ce7a70564afda35eea1750cbce68c4e3cb8b62",
	"sweep-warm":  "a69eef079dc0dd68152f073671ce7a70564afda35eea1750cbce68c4e3cb8b62",
	"seecd-mixed": "1861d0e4d0320e38b275e0f8c9af8815c1fc4276e44b57dbb709e28edb4aad69",
}

// checkGolden compares a run's digest with the recorded one when the
// run used the default seed. The digest is printed either way, so a
// deliberate behaviour change can re-record it.
func checkGolden(opt options, out *outcome, got string) {
	fmt.Printf("digest %s seed=%d %s\n", opt.workload, opt.seed, got)
	if opt.seed != defaultSeed {
		return
	}
	if want, ok := goldens[opt.workload]; !ok {
		out.problem("no recorded digest for %s", opt.workload)
	} else if got != want {
		out.problem("%s digest %s, recorded %s", opt.workload, got, want)
	}
}
