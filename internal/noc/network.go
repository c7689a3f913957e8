package noc

import (
	"fmt"

	"seec/internal/energy"
	"seec/internal/fault"
	"seec/internal/rng"
	"seec/internal/stats"
	"seec/internal/trace"
)

// TrafficSource drives and drains the network. Synthetic generators
// produce open-loop Bernoulli traffic; the coherence engine produces
// closed-loop, protocol-dependent traffic.
type TrafficSource interface {
	// Generate returns the packets node should enqueue this cycle. The
	// returned slice is only valid until the next call.
	Generate(cycle int64, node int) []PacketSpec
	// Deliver offers a fully ejected packet to the sink. Returning
	// false leaves the packet in its ejection VC (backpressure); the
	// NIC retries every cycle.
	Deliver(cycle int64, pkt *Packet) bool
}

// ConcurrentGenerator is an optional TrafficSource method.
//
// Deprecated: it has no effect; Network.Step is serial. Its only user
// is the perfbench module, which forwards it through its traffic
// wrapper.
type ConcurrentGenerator interface {
	ConcurrentGenerate() bool
}

// ConcurrentDeliverer is an optional TrafficSource method.
//
// Deprecated: it has no effect; Network.Step is serial. Its only user
// is the perfbench module, which forwards it through its traffic
// wrapper.
type ConcurrentDeliverer interface {
	ConcurrentDeliver() bool
}

// Scheme is a deadlock-freedom / flow-control mechanism layered on the
// base credit-flow router. Hooks run inside Network.Step.
type Scheme interface {
	Name() string
	// Attach wires the scheme to the network before the first cycle.
	Attach(n *Network) error
	// PreRouter runs after link delivery and traffic generation but
	// before NIC injection and router pipelines. Free-Flow movement,
	// SPIN spins, SWAP swaps and DRAIN drains happen here.
	PreRouter(n *Network)
	// PostRouter runs after NIC consumption, closing the cycle.
	PostRouter(n *Network)
}

// Network is one simulated mesh NoC.
type Network struct {
	Cfg     Config
	Cycle   int64
	Routers []*Router
	NICs    []*NIC

	Rng       *rng.Rand
	Traffic   TrafficSource
	Scheme    Scheme
	VA        VAPolicy
	Collector *stats.Collector
	Energy    *energy.Meter

	// Tracer, Metrics and Watchdog are the observability layer; all
	// three are nil by default and every touch point guards on that, so
	// the disabled hot path costs one predictable branch per site and
	// allocates nothing. Instrumentation only observes — enabling it
	// never changes routing, arbitration or RNG draws, so results stay
	// byte-identical either way.
	Tracer   trace.Tracer
	Metrics  *trace.Metrics
	Watchdog *Watchdog

	// Faults is the fault injector, nil by default like the
	// observability layer; install via SetFaults. Unlike that layer it
	// does change behavior — but only when non-nil, so the fault-free
	// path is untouched.
	Faults *fault.Injector

	// InFlight counts packets enqueued but not yet consumed.
	InFlight int

	// Frozen suspends NIC injection and router pipelines (links and
	// consumption keep running). DRAIN freezes the network during its
	// synchronous ring rotations.
	Frozen bool

	dataLinks    []*DataLink
	creditLinks  []*CreditLink
	lastProgress int64
	lastConsume  int64 // last cycle a packet left the system (watchdog signal)
	nextPktID    uint64

	// vaRound counts non-frozen cycles; it is the rotation base for every
	// router's VC-allocation scan (successor of the per-router vaPtr,
	// which skipping quiescent routers would have let drift). vaRoundMod
	// caches vaRound mod vaTotal so the per-router scan never divides;
	// every vaRound update maintains it.
	vaRound    int
	vaRoundMod int
	vaTotal    int // NumPorts * TotalVCs
	nvcs       int // cached Cfg.TotalVCs()

	// lay owns the flat slabs all hot mutable state lives in; the
	// Routers/NICs pointer slices (and every port/VC/link pointer) are
	// views into it. See layout.go / DESIGN.md §10.
	lay layout

	// xOf/yOf are per-node mesh coordinates, so per-flit routing never
	// divides by Cols.
	xOf, yOf []int16

	// activeData/activeCredit hold the links that have something staged
	// for the next delivery phase; Step drains them instead of sweeping
	// every link in the mesh. spare* are the retired backing arrays,
	// swapped back in to avoid per-cycle allocation.
	activeData   []*DataLink
	spareData    []*DataLink
	activeCredit []*CreditLink
	spareCredit  []*CreditLink

	// ffMarked lists the output ports whose FFReserved flag must be
	// cleared at the start of the next cycle (set via ReserveFF).
	ffMarked []*OutputPort

	// retxScratch/diedScratch are reused across faultTick calls so the
	// per-cycle fault bookkeeping never allocates in steady state.
	retxScratch []fault.Retx
	diedScratch []int

	// recycle enables the Packet free list: consumed packets return to
	// freePkts and are reused by NIC.Enqueue. Only safe when the traffic
	// sink does not retain *Packet past Deliver (synthetic traffic);
	// closed-loop engines keep it off.
	recycle  bool
	freePkts []*Packet

	// noFastForward disables idle fast-forward in Run/Drain (see
	// SetFastForward; skips are exact, so this is a debugging aid).
	noFastForward bool

	// vaFast selects the fused allocation path: VA is a plain DefaultVA
	// (any routing kind, recorded in vaKind) and no fault injector is
	// installed, so vaTry calls Router.vaFused directly instead of going
	// through the VAPolicy interface, and VA and injection misses are
	// memoized. VA and Faults are exported and reassignable, so the pair
	// is recomputed every cycle (refreshVAFast), never trusted across
	// one.
	vaFast bool
	vaKind RoutingKind
}

// Option mutates a Network during construction (before Attach).
type Option func(*Network)

// WithVA substitutes the VC-allocation policy.
func WithVA(p VAPolicy) Option { return func(n *Network) { n.VA = p } }

// WithScheme installs a deadlock-freedom scheme.
func WithScheme(s Scheme) Option { return func(n *Network) { n.Scheme = s } }

// WithTraffic installs the traffic source.
func WithTraffic(t TrafficSource) Option { return func(n *Network) { n.Traffic = t } }

// WithTracer installs a flit-level event tracer.
func WithTracer(t trace.Tracer) Option { return func(n *Network) { n.Tracer = t } }

// New builds a mesh network from cfg.
func New(cfg Config, opts ...Option) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:       cfg,
		Rng:       rng.New(cfg.Seed),
		VA:        DefaultVA{Kind: cfg.Routing},
		Collector: stats.NewCollector(cfg.Warmup),
		Energy:    energy.NewMeter(cfg.FlitBits),
	}
	nodes := cfg.Nodes()
	nvcs := cfg.TotalVCs()
	n.nvcs = nvcs
	n.vaTotal = NumPorts * nvcs
	n.lay = allocLayout(&cfg)
	lay := &n.lay
	n.Routers = make([]*Router, nodes)
	n.NICs = make([]*NIC, nodes)
	n.xOf = make([]int16, nodes)
	n.yOf = make([]int16, nodes)

	for id := 0; id < nodes; id++ {
		x, y := cfg.XY(id)
		n.xOf[id], n.yOf[id] = int16(x), int16(y)
		r := &lay.routers[id]
		*r = Router{ID: id, X: x, Y: y, Net: n}
		n.Routers[id] = r
	}
	// Create ports. Every router has local ports; cardinal ports exist
	// only where the mesh has a neighbor. All per-router state is carved
	// router-major from the slabs.
	for id, r := range n.Routers {
		r.nvcs = nvcs
		r.vaSet = lay.takeBits(NumPorts * nvcs)
		saBase := lay.wordOff
		r.vcAt = lay.vcPtrs[id*NumPorts*nvcs : (id+1)*NumPorts*nvcs : (id+1)*NumPorts*nvcs]
		for d := 0; d < NumPorts; d++ {
			if d != Local && cfg.Neighbor(id, d) < 0 {
				lay.takeBits(nvcs) // keep the per-router word stride uniform
				continue
			}
			in := &lay.inPorts[portID(id, d)]
			*in = InputPort{Router: r, Dir: d, VCs: r.vcAt[d*nvcs : (d+1)*nvcs : (d+1)*nvcs],
				saSet: lay.takeBits(nvcs), vaBase: d * nvcs, vcs: lay.takeVCs(nvcs)}
			for v := range in.VCs {
				vc := &in.vcs[v]
				*vc = VC{ID: v, Depth: cfg.VCDepth, buf: lay.takeFlits(cfg.VCDepth),
					OutPort: -1, OutVC: -1, in: in}
				in.VCs[v] = vc
			}
			r.In[d] = in
			nOut := nvcs
			down := -1
			if d == Local {
				nOut = cfg.Classes * cfg.EjectVCsPerClass
			} else {
				down = cfg.Neighbor(id, d)
			}
			out := &lay.outPorts[portID(id, d)]
			*out = OutputPort{Router: r, Dir: d, DownRouter: down, VCs: lay.takeOutVCs(nOut)}
			depth := cfg.VCDepth
			if d == Local {
				depth = cfg.EjectDepth()
			}
			for v := range out.VCs {
				out.VCs[v].Credits = depth
			}
			r.Out[d] = out
		}
		if nvcs <= 64 {
			// One word per saSet: the five are adjacent in the slab.
			r.saWords = (*[NumPorts]uint64)(lay.words[saBase : saBase+NumPorts])
		}
		lay.padFlits()
		lay.padWords()
	}
	// Wire router-to-router links and credit channels.
	for id, r := range n.Routers {
		for d := North; d <= West; d++ {
			nb := cfg.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			peer := n.Routers[nb].In[Opposite(d)]
			out := r.Out[d]
			out.Link = lay.takeDataLink(fmt.Sprintf("r%d.%s->r%d", id, DirName(d), nb), peer, nil)
			peer.CreditOut = lay.takeCreditLink(out, nil)
			n.dataLinks = append(n.dataLinks, out.Link)
			n.creditLinks = append(n.creditLinks, peer.CreditOut)
		}
	}
	// Create NICs and wire local ports.
	ejN := cfg.Classes * cfg.EjectVCsPerClass
	for id, r := range n.Routers {
		nic := &lay.nics[id]
		*nic = NIC{
			Node:        id,
			Net:         n,
			Queues:      make([][]*Packet, cfg.Classes),
			qBase:       make([][]*Packet, cfg.Classes),
			LocalMirror: lay.takeOutVCs(nvcs),
			Ej:          lay.ejPtrs[id*ejN : (id+1)*ejN : (id+1)*ejN],
		}
		for v := range nic.LocalMirror {
			nic.LocalMirror[v].Credits = cfg.VCDepth
		}
		for i := range nic.Ej {
			ej := &lay.ejs[id*ejN+i]
			*ej = EjVC{Class: i / cfg.EjectVCsPerClass}
			nic.Ej[i] = ej
		}
		nic.InjLink = lay.takeDataLink(fmt.Sprintf("nic%d->r%d", id, id), r.In[Local], nil)
		r.In[Local].CreditOut = lay.takeCreditLink(nil, nic)
		r.Out[Local].Link = lay.takeDataLink(fmt.Sprintf("r%d->nic%d", id, id), nil, nic)
		nic.EjCreditOut = lay.takeCreditLink(r.Out[Local], nil)
		n.dataLinks = append(n.dataLinks, nic.InjLink, r.Out[Local].Link)
		n.creditLinks = append(n.creditLinks, r.In[Local].CreditOut, nic.EjCreditOut)
		n.NICs[id] = nic
	}
	lay.check()

	// Register every link with the network so Send can enroll it in the
	// active delivery lists.
	for _, l := range n.dataLinks {
		l.net = n
	}
	for _, l := range n.creditLinks {
		l.net = n
	}
	n.spareData = make([]*DataLink, 0, len(n.dataLinks))
	n.activeData = make([]*DataLink, 0, len(n.dataLinks))
	n.spareCredit = make([]*CreditLink, 0, len(n.creditLinks))
	n.activeCredit = make([]*CreditLink, 0, len(n.creditLinks))

	for _, o := range opts {
		o(n)
	}
	if n.Scheme != nil {
		if err := n.Scheme.Attach(n); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Step advances the simulation by one cycle. Its cost is proportional
// to occupancy, not mesh size: only links with staged payloads deliver,
// only routers with buffered flits run their pipelines, and only NICs
// with pending work inject or consume. Every skip condition is exact —
// the skipped code path would provably be a no-op — so results are
// bit-identical to the full sweep.
func (n *Network) Step() {
	n.Cycle++
	// Phase A: deliver everything staged in the previous cycle — data
	// before credits, as the full sweep ordered them. Swapping the
	// retired array into spare* keeps this allocation-free; links
	// re-registering during delivery (credits sent by receiveFlit
	// sinks... none today, but harmless) append to the fresh list.
	data := n.activeData
	n.activeData = n.spareData[:0]
	for _, l := range data {
		l.deliver()
	}
	n.spareData = data
	credits := n.activeCredit
	n.activeCredit = n.spareCredit[:0]
	for _, l := range credits {
		l.deliver()
	}
	n.spareCredit = credits
	// Fault bookkeeping: scheduled permanent faults, ACK/NACK delivery,
	// retransmission timeouts. Before traffic generation so a
	// retransmitted packet can inject the same cycle it times out.
	if n.Faults != nil {
		n.faultTick()
	}
	// Traffic generation.
	if n.Traffic != nil {
		for node := range n.NICs {
			for _, spec := range n.Traffic.Generate(n.Cycle, node) {
				n.NICs[node].Enqueue(spec)
			}
		}
	}
	// Phase B: scheme, injection, router pipelines, consumption.
	for _, o := range n.ffMarked {
		o.FFReserved = false
	}
	n.ffMarked = n.ffMarked[:0]
	if n.Scheme != nil {
		n.Scheme.PreRouter(n)
	}
	if !n.Frozen {
		n.refreshVAFast()
		// Iterate the slabs directly: same order as the Routers/NICs
		// pointer slices, one pointer load less per element.
		nics := n.lay.nics
		for i := range nics {
			nic := &nics[i]
			if nic.cur != nil || nic.backlog > 0 {
				nic.inject()
			}
		}
		routers := n.lay.routers
		for i := range routers {
			r := &routers[i]
			if r.occupied > 0 {
				r.step()
			}
		}
		n.bumpVARound()
	}
	nics := n.lay.nics
	for i := range nics {
		nic := &nics[i]
		if nic.ejOccupied > 0 {
			nic.consume()
		}
	}
	if n.Scheme != nil {
		n.Scheme.PostRouter(n)
	}
	n.Energy.Tick()
	// Observability hooks: both nil on the un-instrumented hot path.
	if n.Metrics != nil {
		for i, r := range n.Routers {
			n.Metrics.Occupancy(i, r.occupied)
		}
		n.Metrics.Tick()
	}
	if n.Watchdog != nil {
		n.Watchdog.check(n)
	}
}

// refreshVAFast recomputes the fused-path selection for the coming
// router pass. Runs after the scheme's PreRouter hook, so a scheme
// swapping the VA policy (or faults being installed) is honored the
// same cycle. The memos were recorded under the previous selection, so
// any change drops them all.
func (n *Network) refreshVAFast() {
	d, ok := n.VA.(DefaultVA)
	fast := ok && n.Faults == nil
	if fast == n.vaFast && (!fast || d.Kind == n.vaKind) {
		return
	}
	n.vaFast, n.vaKind = fast, d.Kind
	n.dropMemos()
}

// dropMemos clears every VA failure memo and NIC injection memo.
func (n *Network) dropMemos() {
	for i := range n.lay.vcs {
		n.lay.vcs[i].memoN = 0
	}
	for i := range n.lay.nics {
		n.lay.nics[i].injBlocked = false
	}
}

// bumpVARound advances the VA rotation by one cycle, keeping the
// division-free vaRoundMod mirror in step.
func (n *Network) bumpVARound() {
	n.vaRound++
	n.vaRoundMod++
	if n.vaRoundMod == n.vaTotal {
		n.vaRoundMod = 0
	}
}

// SetPacketRecycling toggles the Packet free list. Enable only when the
// traffic sink does not retain packet pointers past Deliver.
func (n *Network) SetPacketRecycling(on bool) { n.recycle = on }

// Run advances the simulation by cycles steps, fast-forwarding through
// provably idle stretches (see trySkip in idle.go; skips are exact,
// results are bit-identical to stepping every cycle).
func (n *Network) Run(cycles int64) {
	target := n.Cycle + cycles
	for n.Cycle < target {
		if n.trySkip(target) {
			continue
		}
		n.Step()
	}
}

// noteProgress records that some flit made forward progress this cycle;
// the deadlock watchdog keys off it.
func (n *Network) noteProgress() { n.lastProgress = n.Cycle }

// NoteProgress is the exported form of the progress signal, for scheme
// implementations that move flits outside the regular pipeline
// (Free-Flow worms, SPIN spins, SWAP swaps, DRAIN drains).
func (n *Network) NoteProgress() { n.lastProgress = n.Cycle }

// LastProgress returns the last cycle in which any flit moved or was
// consumed.
func (n *Network) LastProgress() int64 { return n.lastProgress }

// Stalled reports whether the network holds traffic but nothing has
// moved for at least window cycles — the observable symptom of deadlock
// (or of total livelock).
func (n *Network) Stalled(window int64) bool {
	return n.InFlight > 0 && n.Cycle-n.lastProgress >= window
}

// Drained reports whether no packets remain anywhere in the system —
// including transactions the fault layer still tracks for possible
// retransmission (their packet may have been discarded as damaged, so
// InFlight alone would declare victory before recovery finishes).
func (n *Network) Drained() bool {
	return n.InFlight == 0 && (n.Faults == nil || n.Faults.Outstanding() == 0)
}

// Nodes returns the number of network endpoints.
func (n *Network) Nodes() int { return n.Cfg.Nodes() }

// FreeVCsAt counts idle VCs at router id's input port dir within the
// class range — exported for scheme implementations and tests.
func (n *Network) FreeVCsAt(id, dir, class int) int {
	in := n.Routers[id].In[dir]
	if in == nil {
		return 0
	}
	lo, hi := n.Cfg.VCRange(class)
	return in.FreeVCs(lo, hi)
}
