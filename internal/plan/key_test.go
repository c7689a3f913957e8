package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"seec"
)

// keyCorpus is a fixed set of configurations whose canonical JSON
// covers every encoding case: defaults, every basic kind set, a fault
// spec, CI stopping, floats on both sides of the exponent-format
// cutoffs, negative zero, a subnormal, extreme integers, and strings
// that json.Marshal escapes or that are not ASCII.
func keyCorpus() []seec.Config {
	def := seec.DefaultConfig()

	chipper := def
	chipper.Scheme, chipper.Rows, chipper.Cols = seec.SchemeCHIPPER, 4, 4
	chipper.Warmup, chipper.SimCycles, chipper.InjectionRate, chipper.Seed = 500, 5000, 0.1, 9
	chipper.Faults = "link:0.001,router:2@5000"

	knobs := def
	knobs.Scheme, knobs.Routing, knobs.Pattern = seec.SchemeNone, seec.RoutingAdaptive, "transpose"
	knobs.VCsPerVNet, knobs.VCDepth, knobs.Classes, knobs.VNets = 2, 8, 3, 3
	knobs.Wormhole, knobs.OldestFirst, knobs.NICSearchPeriod, knobs.StopCI = true, true, 64, 0.05

	exp := def
	exp.InjectionRate, exp.StopCI = 1e-7, 1e21
	exp.Seed, exp.Warmup, exp.SimCycles = math.MaxUint64, -1, math.MaxInt64

	bounds := def
	bounds.InjectionRate, bounds.StopCI = 1e-6, 9.999999999999999e20

	tiny := def
	tiny.InjectionRate, tiny.StopCI = math.Copysign(0, -1), math.SmallestNonzeroFloat64
	tiny.Rows, tiny.MaxPacketSize = math.MinInt64, -5

	escaped := def
	escaped.Pattern = "a\"b\\c<d>&e\tf"
	escaped.Faults = "é \x7f"

	return []seec.Config{def, chipper, knobs, exp, bounds, tiny, escaped}
}

// TestDerivedKeyGolden pins the planner's key spaces over keyCorpus:
// the result key, AppKey, MeasKey, forkKey and the family grouping (as
// the SHA-256 of its string). Like TestCacheKeyGolden, these are on-disk
// addresses: a drift makes every stored application run, measurement
// and fork member miss.
func TestDerivedKeyGolden(t *testing.T) {
	want := []struct{ result, app, meas, fork, family string }{
		{"b3a7c9962f084d8e5b9decd9b6b195b7c1ed16b07ff5925e1851769edcabfa03", "481b7a2a498e18acef3d0dfc15f2bae0ce969393c131586593f00ef0d49cb863", "0198bd341896516bf009507ee19d1c4503fa76963fae48c98b3ff4b277684c6a", "aa7a7837bd42f8ba694902bc33d4278e86b69125a0a2747a07bf0d8808cd06cf", "4cc4cff15504f4fb2907aaa6ed6ff1e885c4c50452d75823bb63b3fc484dfe9f"},
		{"2426fbf3e0d8b1df23506a894acc3680dd62e8da0e133e3b4b069eeec079c46b", "c9ce9a31f90e7ac60c7fbd62714cdf775509bda1f3ec03e3e6b7b899d63f6b80", "f39eadae214cf94e8b2a1e882ee43ea8267f726a8c446f0cade871c7a1486d1f", "289a99513ab1c75bd851f16c0a4d87beae6ce2e259daad033ea2400bd13563ab", "2144c1795b5ecce36acae59ae4c6d0024f7a70051794d7e0bd5211a6db218e42"},
		{"e0d3b04f6316e973d9dac02f27f8115560faa9ec4ef9a1c3a88525e1eda932a7", "9d0795bb73001453b37b7867fe73a11d2726c43c5fd5488dfc40357cc9937b86", "56265dee8efd45fbe0fdff2b70d8513a16659635ad071f794022d60e5dbf9546", "e0247646adf9f4ed2c4595d9c9f27c814fe6234ffdaf414c67e6d1c9cfec08d0", "5ec99f1bcedcff2ca207c12e9a0e7b323e26fee5a08ca9750c59fc457fc7f4d6"},
		{"2ba14467cd2c5f4744adac39607036bc67feec7001a607afa8e3eaea7d152363", "a74ff05b20f3c62a72fdcbd2ddbe4d8186c7b911ce1ac09e6307fe41feeb5619", "6785a1ad089bb7d1190dd8895a21e6576c01de8d48d6987cb2b389c8730152a3", "987bbd3d1e46a1bb9be1b7f29ce2bfba4ad1c8fe163d130ad2885316a1546ac9", "e414b2fe79949f396734599a251742ce51d39b8bd244c8d7026a7f6dbf7e3a4d"},
		{"306cdb73e717bc9c8a37928a8cf45f26ac77ed258433cb7e03588d430b35045b", "2baa08a8f0c3dba44d7f5bdd0fa9df4a86525517a2fb3a8f141d8d4bf50f294c", "b128c696d273ef13a817fb16798d7ed459e6b382ddea13d2da96854afdc24a5b", "8e96a0d5c9e71432250f4fe12fc56e80d79902bd47fb37e20b2a9be3b7e931bf", "0369440e6b36094d22eacaf21a1b226a85f53c8ee96f470cca692897749d8306"},
		{"ff7051e84e8cbcc8c206e5ecfd70d5a0634ad9c12ca8d5da96eeb13d50f19298", "9a81ca7ecb6c78aac73ebfa968d3782588f808a95b76deae1799a7275e428d57", "3ff4575be35107fe5ad99c15c1629ec16a78dd9154de0f5abfe1149196cf81a8", "05e04f2ff5f34382fea3f5729ab7507134f1a664905dc0e4a8a28ee30f2e3913", "6284ed0b535e2d60ef453da60a1ab121d1406c16e6d702822b5a0bd687bd9304"},
		{"b7afa76289ef1f43d39c93baba5676409cc0a34d1c8f0bbec47e0026e02e1b2a", "35f6a29a0fa5c903b378712285f0bbdb0532b2b10d832eadbb72a04ac4916be7", "bd5bdbd062155985da266a19bf946990ab1b3f65132ca552348095c11bb6e205", "3b6a7fa2f984db3e1138ee6edfa14117926c74029921f5790aa704b399742852", "d3f749776ff4aca2931929e08fb3a9cc72311e5b8a75a1e442d857df27a47539"},
	}
	corpus := keyCorpus()
	if len(corpus) != len(want) {
		t.Fatalf("%d configs, %d goldens", len(corpus), len(want))
	}
	for i, cfg := range corpus {
		fam := sha256.Sum256([]byte(familyKey(cfg)))
		got := struct{ result, app, meas, fork, family string }{
			Key(Job{Cfg: cfg}),
			AppKey(cfg, "barnes", 1000, 2_000_000),
			MeasKey("table3-drain/pause3000-deadline5e6", cfg),
			forkKey(cfg, 0.05),
			hex.EncodeToString(fam[:]),
		}
		if got != want[i] {
			t.Errorf("config %d: keys drifted:\n got  %q\n want %q", i, got, want[i])
		}
	}
}
