// Package seec is a from-scratch Go reproduction of "SEEC: Stochastic
// Escape Express Channel" (Parasar, Enright Jerger, Gratz, San Miguel,
// Krishna; SC '21): a cycle-accurate mesh NoC simulator, the SEEC and
// mSEEC mechanisms (seeker tokens + Free-Flow bufferless express
// traversal), and the full set of baseline deadlock-freedom and
// flow-control schemes the paper evaluates against — turn models,
// escape VCs, TFC, CHIPPER/MinBD deflection, SPIN, SWAP and DRAIN —
// plus synthetic and coherence-protocol workloads, link-energy and
// router-area models, and a harness that regenerates every figure and
// table in the paper's evaluation.
//
// The quickest way in:
//
//	cfg := seec.DefaultConfig()
//	cfg.Scheme = seec.SchemeSEEC
//	cfg.Pattern = "uniform_random"
//	cfg.InjectionRate = 0.10
//	res, err := seec.RunSyntheticCtx(context.Background(), cfg)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package seec

import (
	"fmt"

	"seec/internal/coherence"
	"seec/internal/deflect"
	"seec/internal/energy"
	"seec/internal/express"
	"seec/internal/fault"
	"seec/internal/noc"
	"seec/internal/rng"
	"seec/internal/schemes/drain"
	"seec/internal/schemes/escape"
	"seec/internal/schemes/spin"
	"seec/internal/schemes/swap"
	"seec/internal/schemes/tfc"
	"seec/internal/stats"
	"seec/internal/traffic"
)

// Scheme identifies a deadlock-freedom / flow-control mechanism.
type Scheme string

// The schemes of Table 4, plus the unprotected baseline used to
// demonstrate that deadlocks are real.
const (
	// SchemeNone is plain credit flow control with no protection:
	// deadlock-free only under a deadlock-free routing algorithm.
	SchemeNone Scheme = "none"
	// SchemeXY is dimension-ordered routing (proactive, Table 4 "Turn
	// Models").
	SchemeXY Scheme = "xy"
	// SchemeWestFirst is the west-first turn model (proactive).
	SchemeWestFirst Scheme = "west-first"
	// SchemeTFC is Token Flow Control over west-first (proactive).
	SchemeTFC Scheme = "tfc"
	// SchemeEscape is Duato escape VCs: adaptive random in normal VCs,
	// west-first in the per-class escape VC (proactive).
	SchemeEscape Scheme = "escape"
	// SchemeCHIPPER is bufferless deflection routing (proactive).
	SchemeCHIPPER Scheme = "chipper"
	// SchemeMinBD is minimally-buffered deflection (proactive).
	SchemeMinBD Scheme = "minbd"
	// SchemeSPIN is reactive detection + synchronized spins.
	SchemeSPIN Scheme = "spin"
	// SchemeSWAP is subactive pair-wise packet swapping.
	SchemeSWAP Scheme = "swap"
	// SchemeDRAIN is subactive periodic ring drains.
	SchemeDRAIN Scheme = "drain"
	// SchemeSEEC is the paper's contribution: seekers + Free-Flow.
	SchemeSEEC Scheme = "seec"
	// SchemeMSEEC is multi-SEEC: k simultaneous seekers (§3.8).
	SchemeMSEEC Scheme = "mseec"
)

// AllSchemes lists every supported scheme.
func AllSchemes() []Scheme {
	return []Scheme{SchemeXY, SchemeWestFirst, SchemeTFC, SchemeEscape,
		SchemeCHIPPER, SchemeMinBD, SchemeSPIN, SchemeSWAP, SchemeDRAIN,
		SchemeSEEC, SchemeMSEEC}
}

// Routing identifies the routing algorithm for regular VCs. An empty
// value selects each scheme's paper default (Table 4): XY for
// SchemeXY, west-first for west-first/TFC, fully-adaptive minimal
// random for escape/SPIN/SWAP/DRAIN/SEEC/mSEEC.
type Routing string

// Routing algorithm names.
const (
	RoutingDefault   Routing = ""
	RoutingXY        Routing = "xy"
	RoutingYX        Routing = "yx"
	RoutingWestFirst Routing = "west-first"
	RoutingOblivious Routing = "oblivious" // minimal oblivious random (deadlock-prone alone)
	RoutingAdaptive  Routing = "adaptive"  // minimal adaptive random (deadlock-prone alone)
)

// Config describes one simulation. Zero values mean "paper default".
type Config struct {
	Rows, Cols int
	Scheme     Scheme
	Routing    Routing

	// VCsPerVNet is the number of VCs per virtual network at each
	// input port (Fig. 8 uses 4 for synthetic traffic).
	VCsPerVNet int
	// Classes is the number of protocol message classes (1 for
	// synthetic traffic, 6 for application traffic).
	Classes int
	// VNets is 0 for the scheme's natural choice (1 for SEEC/mSEEC/
	// DRAIN/escape-shared-pool, Classes for partitioned baselines).
	VNets int

	VCDepth          int
	MaxPacketSize    int
	EjectVCsPerClass int
	InjQueueCap      int

	// Wormhole switches the routers from VCT to wormhole buffer
	// management (§3.11): VCDepth may then be smaller than the largest
	// packet. Supported by SEEC/mSEEC and the proactive baselines; the
	// move-based baselines (SPIN, SWAP, DRAIN) require whole packets
	// per buffer and reject this mode.
	Wormhole bool

	Seed   uint64
	Warmup int64

	// Synthetic traffic.
	Pattern       string  // e.g. "uniform_random", "transpose"
	InjectionRate float64 // packets/node/cycle
	SimCycles     int64   // measured cycles (after warmup)

	// NICSearchPeriod is SEEC's N from §3.7 (0 = search every
	// circulation, this library's default; the paper used 1M cycles).
	NICSearchPeriod int64

	// OldestFirst switches SEEC/mSEEC seekers from first-match to
	// oldest-packet selection — the QoS extension §4.3 points at.
	OldestFirst bool

	// Faults is a fault-injection spec string (see internal/fault:
	// "link:0.001,router:2@5000,corrupt:1e-5"). Empty disables the fault
	// layer entirely — results are then byte-identical to a build
	// without it. Supported on credit-flow schemes with synthetic
	// traffic; deflection schemes and coherence traffic reject it.
	Faults string

	// StopCI enables confidence-interval early stopping for synthetic
	// runs: after warmup, a batch-means estimator (internal/stats)
	// tracks the average packet latency, and the run ends as soon as
	// the 95% CI's relative half-width drops to StopCI (e.g. 0.02 for
	// ±2%) — or at Warmup+SimCycles, whichever comes first. 0 disables
	// the stopper entirely and reproduces the fixed-cycle run
	// byte-for-byte. StopCI changes where a run ends, so it is a
	// semantic field: it participates in JSON (and hence CheckpointHash
	// and run manifests).
	StopCI float64 `json:",omitempty"`

	// CheckpointPath, CheckpointEvery and ResumePath drive the
	// checkpoint machinery in RunSyntheticCtx. A non-empty
	// CheckpointPath makes the run save its full state to that file
	// atomically (write-temp-then-rename) every CheckpointEvery cycles
	// (0 selects DefaultCheckpointEvery) and once more at the end. A
	// non-empty ResumePath makes the run restore from that file before
	// stepping — falling back to a fresh start if the file does not
	// exist, and failing on a corrupt or mismatched one. These are
	// operational knobs, not semantics: resuming an interrupted run
	// yields output byte-identical to the uninterrupted run, so all
	// three are excluded from JSON, CheckpointHash and manifests.
	CheckpointPath  string `json:"-"`
	CheckpointEvery int64  `json:"-"`
	ResumePath      string `json:"-"`

	// Instrument, when non-nil, is called on the freshly built Sim
	// before the first cycle; runner helpers (RunSyntheticCtx,
	// RunApplicationCtx) invoke it and call the returned function (if any)
	// after the last cycle. It is how the CLIs attach tracers, metrics
	// and watchdogs to runs that go through the sweep machinery.
	// Instrumentation must only observe — it never changes results.
	// Excluded from JSON (run manifests embed Config) and from
	// SweepSeed, so enabling it cannot perturb seeding.
	Instrument func(*Sim) func() `json:"-"`

	// Telemetry, when non-nil, is called on the freshly built Sim and
	// returns the run-event callback the run loop invokes for
	// heartbeats, checkpoint saves/restores, CI stops, watchdog stall
	// verdicts and run completion (a nil return disables events for
	// that run). It is a factory rather than a plain callback so that
	// each concurrent simulation — saturation search runs many from one
	// Config — gets its own run identity. Like Instrument it only
	// observes: results are byte-identical with it on or off, and it is
	// excluded from JSON, CheckpointHash and SweepSeed.
	Telemetry func(*Sim) func(RunEvent) `json:"-"`

	// HeartbeatEvery is the heartbeat period in cycles for the run-loop
	// telemetry callback (0 selects DefaultHeartbeatEvery). Operational
	// like Telemetry, hence excluded from JSON.
	HeartbeatEvery int64 `json:"-"`
}

// DefaultConfig mirrors Table 4 for synthetic traffic on an 8x8 mesh.
func DefaultConfig() Config {
	return Config{
		Rows: 8, Cols: 8,
		Scheme:           SchemeSEEC,
		VCsPerVNet:       4,
		Classes:          1,
		VCDepth:          5,
		MaxPacketSize:    5,
		EjectVCsPerClass: 4,
		Seed:             1,
		Warmup:           1000,
		Pattern:          "uniform_random",
		InjectionRate:    0.05,
		SimCycles:        20000,
	}
}

// routingKind resolves the Routing string against the scheme default.
func (c *Config) routingKind() (noc.RoutingKind, error) {
	r := c.Routing
	if r == RoutingDefault {
		switch c.Scheme {
		case SchemeXY, SchemeNone:
			r = RoutingXY
		case SchemeWestFirst, SchemeTFC:
			r = RoutingWestFirst
		default:
			r = RoutingAdaptive
		}
	}
	switch r {
	case RoutingXY:
		return noc.RoutingXY, nil
	case RoutingYX:
		return noc.RoutingYX, nil
	case RoutingWestFirst:
		return noc.RoutingWestFirst, nil
	case RoutingOblivious:
		return noc.RoutingObliviousMin, nil
	case RoutingAdaptive:
		return noc.RoutingAdaptiveMin, nil
	}
	return 0, fmt.Errorf("seec: unknown routing %q", r)
}

// nocConfig lowers the public Config to the simulator Config.
func (c *Config) nocConfig() (noc.Config, error) {
	n := noc.DefaultConfig()
	n.Rows, n.Cols = c.Rows, c.Cols
	n.Classes = c.Classes
	n.VCsPerVNet = c.VCsPerVNet
	n.VCDepth = c.VCDepth
	n.MaxPacketSize = c.MaxPacketSize
	n.EjectVCsPerClass = c.EjectVCsPerClass
	n.InjQueueCap = c.InjQueueCap
	n.Seed = c.Seed
	n.Warmup = c.Warmup
	if c.Wormhole {
		n.Buffering = noc.Wormhole
	}
	kind, err := c.routingKind()
	if err != nil {
		return n, err
	}
	n.Routing = kind
	// VNet layout: SEEC, mSEEC and DRAIN run one unified VNet; the
	// escape scheme manages its own restrictions inside a shared pool;
	// partitioned baselines get one VNet per class (Table 4).
	n.VNets = c.VNets
	if n.VNets == 0 {
		switch c.Scheme {
		case SchemeSEEC, SchemeMSEEC, SchemeDRAIN, SchemeEscape:
			n.VNets = 1
		default:
			n.VNets = c.Classes
		}
	}
	return n, n.Validate()
}

// Sim is one constructed simulation: either a credit-flow network (most
// schemes) or a deflection network (CHIPPER/MinBD), plus its traffic.
type Sim struct {
	Cfg Config

	Net  *noc.Network     // nil for deflection schemes
	Defl *deflect.Network // nil for credit-flow schemes

	Synthetic *traffic.Synthetic // non-nil for synthetic runs
	App       *coherence.Engine  // non-nil for application runs

	SEEC  *express.SEEC
	MSEEC *express.MSEEC
	SPIN  *spin.SPIN
	SWAP  *swap.SWAP
	DRAIN *drain.DRAIN

	// Faults is the installed fault injector (nil when Config.Faults is
	// empty).
	Faults *fault.Injector

	// ci is the latency confidence interval at run end, recorded by the
	// run loop when Config.StopCI is set so instrumentation manifests
	// can report the precision actually achieved.
	ci *stats.CI
}

// Step advances one cycle.
func (s *Sim) Step() {
	if s.Net != nil {
		s.Net.Step()
	} else {
		s.Defl.Step()
	}
}

// Run advances n cycles. Credit-flow networks go through noc.Run,
// which fast-forwards provably idle stretches (e.g. a drained network
// waiting out a retransmission timeout); the skips are exact, so
// results match stepping n times.
func (s *Sim) Run(n int64) {
	if s.Net != nil {
		s.Net.Run(n)
		return
	}
	for i := int64(0); i < n; i++ {
		s.Defl.Step()
	}
}

// Close does nothing.
//
// Deprecated: a Sim holds no resources beyond memory. Its only user is
// the perfbench module, which defers it.
func (s *Sim) Close() {}

// Cycle returns the current simulation time.
func (s *Sim) Cycle() int64 {
	if s.Net != nil {
		return s.Net.Cycle
	}
	return s.Defl.Cycle
}

// Collector returns the packet-statistics collector.
func (s *Sim) Collector() *stats.Collector {
	if s.Net != nil {
		return s.Net.Collector
	}
	return s.Defl.Collector
}

// Energy returns the activity-based energy meter.
func (s *Sim) Energy() *energy.Meter {
	if s.Net != nil {
		return s.Net.Energy
	}
	return s.Defl.Energy
}

// Drained reports whether no packets remain in the system.
func (s *Sim) Drained() bool {
	if s.Net != nil {
		return s.Net.Drained()
	}
	return s.Defl.Drained()
}

// Stalled reports a liveness failure: packets present but nothing has
// moved for window cycles.
func (s *Sim) Stalled(window int64) bool {
	if s.Net != nil {
		return s.Net.Stalled(window)
	}
	return s.Defl.Stalled(window)
}

// Nodes returns the endpoint count.
func (s *Sim) Nodes() int { return s.Cfg.Rows * s.Cfg.Cols }

// InFlightPackets returns the number of packets currently in the
// network (injected but not yet consumed). Reported in telemetry
// heartbeats.
func (s *Sim) InFlightPackets() int {
	if s.Net != nil {
		return s.Net.InFlight
	}
	return s.Defl.InFlight
}

// FFUpgrades returns how many packets were promoted to Free-Flow (0
// for non-SEEC schemes).
func (s *Sim) FFUpgrades() int64 {
	switch {
	case s.SEEC != nil:
		return s.SEEC.Stats.Upgrades + s.SEEC.Stats.QueueUpgrades
	case s.MSEEC != nil:
		return s.MSEEC.Stats.Upgrades + s.MSEEC.Stats.QueueUpgrades
	}
	return 0
}

// NewSim builds a simulation with synthetic traffic per cfg.
func NewSim(cfg Config) (*Sim, error) {
	pat, err := traffic.ParsePattern(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	src := traffic.NewSynthetic(cfg.Rows, cfg.Cols, pat, cfg.InjectionRate, cfg.Seed)
	s, err := build(cfg, src)
	if err != nil {
		return nil, err
	}
	// Synthetic sinks never retain delivered packets, so consumed Packet
	// objects can be recycled into new injections. Closed-loop traffic
	// (NewAppSim) keeps recycling off: the coherence engine tracks
	// transactions past delivery.
	if s.Net != nil {
		s.Net.SetPacketRecycling(true)
	}
	s.Synthetic = src
	return s, nil
}

// NewAppSim builds a simulation driven by a coherence application
// profile. Deflection schemes are not supported for application
// traffic (as in the paper, which evaluates MinBD on synthetic traffic
// only).
func NewAppSim(cfg Config, app string, txns int64) (*Sim, error) {
	if cfg.Scheme == SchemeCHIPPER || cfg.Scheme == SchemeMinBD {
		return nil, fmt.Errorf("seec: deflection schemes run synthetic traffic only")
	}
	if cfg.Faults != "" {
		// Retransmitted packets carry no Tag, and the coherence engine
		// retains packet pointers past delivery — both incompatible with
		// the discard/retransmit protocol.
		return nil, fmt.Errorf("seec: fault injection supports synthetic traffic only")
	}
	prof, err := coherence.ByName(app)
	if err != nil {
		return nil, err
	}
	cfg.Classes = coherence.NumClasses
	if cfg.InjQueueCap == 0 {
		cfg.InjQueueCap = 4
	}
	ncfg, err := cfg.nocConfig()
	if err != nil {
		return nil, err
	}
	eng := coherence.NewEngine(&ncfg, prof, cfg.Seed)
	eng.TargetTxns = txns
	s, err := build(cfg, eng)
	if err != nil {
		return nil, err
	}
	eng.Bind(s.Net)
	s.App = eng
	return s, nil
}

// build assembles the network for cfg around the given traffic source.
func build(cfg Config, src noc.TrafficSource) (*Sim, error) {
	ncfg, err := cfg.nocConfig()
	if err != nil {
		return nil, err
	}
	if ncfg.Buffering == noc.Wormhole {
		switch cfg.Scheme {
		case SchemeSPIN, SchemeSWAP, SchemeDRAIN:
			return nil, fmt.Errorf("seec: %s moves whole packets between buffers and does not support wormhole mode (§3.11)", cfg.Scheme)
		}
	}
	var spec fault.Spec
	if cfg.Faults != "" {
		spec, err = fault.ParseSpec(cfg.Faults)
		if err != nil {
			return nil, err
		}
	}
	s := &Sim{Cfg: cfg}
	switch cfg.Scheme {
	case SchemeCHIPPER, SchemeMinBD:
		if cfg.Faults != "" {
			// Deflection networks have no credit-flow NICs to carry the
			// ACK/retransmission protocol.
			return nil, fmt.Errorf("seec: fault injection is not supported on deflection scheme %s", cfg.Scheme)
		}
		v := deflect.CHIPPER
		if cfg.Scheme == SchemeMinBD {
			v = deflect.MinBD
		}
		d, err := deflect.New(ncfg, v, src)
		if err != nil {
			return nil, err
		}
		s.Defl = d
		return s, nil
	}
	opts := []noc.Option{noc.WithTraffic(src)}
	switch cfg.Scheme {
	case SchemeNone, SchemeXY, SchemeWestFirst:
		// Plain credit flow; routing already set.
	case SchemeTFC:
		opts = append(opts, noc.WithVA(tfc.Policy{}))
	case SchemeEscape:
		if ncfg.TotalVCs() <= ncfg.Classes {
			return nil, fmt.Errorf("seec: escape VC needs more than %d VCs (one escape per class plus a normal pool)", ncfg.Classes)
		}
		pol := escape.New(ncfg.Classes)
		if ncfg.Routing == noc.RoutingObliviousMin {
			pol.Adaptive = noc.RoutingObliviousMin
		}
		opts = append(opts, noc.WithVA(pol))
	case SchemeSPIN:
		s.SPIN = spin.New(spin.Options{})
		opts = append(opts, noc.WithScheme(s.SPIN))
	case SchemeSWAP:
		s.SWAP = swap.New(swap.Options{})
		opts = append(opts, noc.WithScheme(s.SWAP))
	case SchemeDRAIN:
		s.DRAIN = drain.New(drain.Options{})
		opts = append(opts, noc.WithScheme(s.DRAIN))
	case SchemeSEEC:
		s.SEEC = express.NewSEEC(express.Options{NICSearchPeriod: cfg.NICSearchPeriod, OldestFirst: cfg.OldestFirst})
		opts = append(opts, noc.WithScheme(s.SEEC))
	case SchemeMSEEC:
		s.MSEEC = express.NewMSEEC(express.Options{NICSearchPeriod: cfg.NICSearchPeriod, OldestFirst: cfg.OldestFirst})
		opts = append(opts, noc.WithScheme(s.MSEEC))
	default:
		return nil, fmt.Errorf("seec: unknown scheme %q", cfg.Scheme)
	}
	n, err := noc.New(ncfg, opts...)
	if err != nil {
		return nil, err
	}
	s.Net = n
	if cfg.Faults != "" {
		// The injector's private stream is derived from the run seed and
		// the spec's own seed field, so fault draws are independent of —
		// and never perturb — the simulation's RNG sequence.
		fseed := rng.NewSeedHash(cfg.Seed).String("fault").Uint64(spec.Seed).Seed()
		s.Faults = fault.NewInjector(spec, fseed)
		n.SetFaults(s.Faults)
	}
	return s, nil
}
