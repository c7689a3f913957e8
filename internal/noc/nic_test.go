package noc

import (
	"bytes"
	"testing"

	"seec/internal/checkpoint"
	"seec/internal/rng"
)

// bareNet builds a network without traffic for white-box NIC tests.
func bareNet(t *testing.T, classes, vnets, vcs int) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Classes = classes
	cfg.VNets = vnets
	cfg.VCsPerVNet = vcs
	cfg.Warmup = 0
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNICInjectionSerializesPacket: a packet's flits leave the NIC in
// order on consecutive cycles, one per cycle.
func TestNICInjectionSerializesPacket(t *testing.T) {
	n := bareNet(t, 1, 1, 2)
	n.NICs[0].Enqueue(PacketSpec{Dst: 1, Class: 0, Size: 5})
	// After 1 cycle the head is staged; after 5 cycles all flits are
	// sent; the packet arrives at router 0's local inport one flit per
	// cycle starting at cycle 2.
	vc := -1
	for i := 0; i < 12; i++ {
		n.Step()
		in := n.Routers[0].In[Local]
		for v, cand := range in.VCs {
			if cand.State == VCActive {
				vc = v
			}
		}
		if vc >= 0 {
			break
		}
	}
	if vc < 0 {
		t.Fatal("packet never reached the local input port")
	}
}

// TestNICClassesDontBlockEachOther: if class 0's head can't get a VC
// (all busy), class 1's packet must still inject.
func TestNICClassesDontBlockEachOther(t *testing.T) {
	n := bareNet(t, 2, 2, 1)
	nic := n.NICs[0]
	// Exhaust class 0's only VC via the mirror, as if a previous class
	// 0 packet still owned it.
	nic.LocalMirror[0].Busy = true
	nic.Enqueue(PacketSpec{Dst: 5, Class: 0, Size: 1})
	nic.Enqueue(PacketSpec{Dst: 5, Class: 1, Size: 1})
	for i := 0; i < 4; i++ {
		n.Step()
	}
	if len(nic.Queues[1]) != 0 {
		t.Fatal("class 1 blocked behind un-injectable class 0")
	}
	if len(nic.Queues[0]) != 1 {
		t.Fatal("class 0 should still be waiting")
	}
}

// TestNICInjectionRoundRobin: with both classes always ready, packets
// alternate between classes at packet boundaries.
func TestNICInjectionRoundRobin(t *testing.T) {
	n := bareNet(t, 2, 2, 2)
	nic := n.NICs[0]
	for i := 0; i < 4; i++ {
		nic.Enqueue(PacketSpec{Dst: 1, Class: 0, Size: 1})
		nic.Enqueue(PacketSpec{Dst: 1, Class: 1, Size: 1})
	}
	n.Run(40)
	if n.InFlight != 0 {
		t.Fatalf("%d packets not delivered", n.InFlight)
	}
	// Alternation is observable through delivery order fairness: both
	// classes completed equally, which the zero InFlight plus per-class
	// counts confirm.
	if n.Collector.ReceivedPackets != 8 {
		t.Fatalf("received %d of 8", n.Collector.ReceivedPackets)
	}
}

// TestEnqueueValidation: bad specs must panic loudly, not corrupt.
func TestEnqueueValidation(t *testing.T) {
	n := bareNet(t, 1, 1, 1)
	for _, spec := range []PacketSpec{
		{Dst: 1, Class: 0, Size: 0},
		{Dst: 1, Class: 0, Size: 99},
		{Dst: 1, Class: 5, Size: 1},
		{Dst: -1, Class: 0, Size: 1},
		{Dst: 999, Class: 0, Size: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v accepted", spec)
				}
			}()
			n.NICs[0].Enqueue(spec)
		}()
	}
}

// TestEjectionPerClassSeparation: packets of different classes land in
// their own ejection VCs.
func TestEjectionPerClassSeparation(t *testing.T) {
	n := bareNet(t, 2, 2, 1)
	n.NICs[0].Enqueue(PacketSpec{Dst: 1, Class: 0, Size: 1})
	n.NICs[0].Enqueue(PacketSpec{Dst: 1, Class: 1, Size: 1})
	n.Run(30)
	if n.InFlight != 0 {
		t.Fatalf("not delivered: %d", n.InFlight)
	}
	c := n.Collector
	if c.ReceivedPackets != 2 {
		t.Fatalf("received %d", c.ReceivedPackets)
	}
}

// TestDeliverRefusalBackpressure: a sink that refuses keeps the packet
// in its ejection VC, and the VC's credits are not returned until
// acceptance.
type refusingSink struct {
	allow bool
	seen  int
}

func (r *refusingSink) Generate(int64, int) []PacketSpec { return nil }
func (r *refusingSink) Deliver(_ int64, _ *Packet) bool {
	r.seen++
	return r.allow
}

func TestDeliverRefusalBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Warmup = 0
	sink := &refusingSink{}
	n, err := New(cfg, WithTraffic(sink))
	if err != nil {
		t.Fatal(err)
	}
	n.NICs[0].Enqueue(PacketSpec{Dst: 3, Class: 0, Size: 1})
	n.Run(40)
	if n.InFlight != 1 {
		t.Fatalf("refused packet vanished (inflight=%d)", n.InFlight)
	}
	if sink.seen == 0 {
		t.Fatal("sink never offered the packet")
	}
	found := false
	for _, ej := range n.NICs[3].Ej {
		if ej.Pkt != nil && ej.Complete() {
			found = true
		}
	}
	if !found {
		t.Fatal("refused packet not held in its ejection VC")
	}
	sink.allow = true
	n.Run(5)
	if n.InFlight != 0 {
		t.Fatal("packet not consumed after sink relented")
	}
	n.Run(3)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveQueued removes from the middle of a class queue.
func TestRemoveQueued(t *testing.T) {
	n := bareNet(t, 1, 1, 1)
	nic := n.NICs[0]
	// Keep them un-injectable by filling the local VC mirror.
	nic.LocalMirror[0].Busy = true
	a := nic.Enqueue(PacketSpec{Dst: 1, Class: 0, Size: 1})
	b := nic.Enqueue(PacketSpec{Dst: 2, Class: 0, Size: 1})
	c := nic.Enqueue(PacketSpec{Dst: 3, Class: 0, Size: 1})
	got := nic.RemoveQueued(0, 1)
	if got != b {
		t.Fatal("removed wrong packet")
	}
	q := nic.QueuedPackets(0)
	if len(q) != 2 || q[0] != a || q[1] != c {
		t.Fatal("queue corrupted by removal")
	}
}

// TestSeededRandomTrafficAllDeliveredMinimally is an end-to-end
// property test: random batches of seeded traffic under XY always
// drain with exact minimal hop counts.
func TestSeededRandomTrafficAllDeliveredMinimally(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 20; trial++ {
		n := bareNet(t, 1, 1, 2)
		count := 1 + r.Intn(40)
		for i := 0; i < count; i++ {
			src := r.Intn(16)
			n.NICs[src].Enqueue(PacketSpec{
				Dst:   r.Intn(16),
				Class: 0,
				Size:  1 + r.Intn(5),
			})
		}
		for i := 0; i < 5000 && !n.Drained(); i++ {
			n.Step()
		}
		if !n.Drained() {
			t.Fatalf("trial %d: %d packets undelivered", trial, n.InFlight)
		}
		if n.Collector.MisrouteHops != 0 {
			t.Fatalf("trial %d: misrouted", trial)
		}
		if n.Collector.ReceivedPackets != int64(count) {
			t.Fatalf("trial %d: received %d of %d", trial, n.Collector.ReceivedPackets, count)
		}
	}
}

// TestInjectionMemo: a NIC whose queued head found no free local VC
// stops retrying, and every event that could let it inject lifts the
// memo — a mirror free, a queue change, and an in-place checkpoint
// restore to a state where the VC was free.
func TestInjectionMemo(t *testing.T) {
	n := bareNet(t, 1, 1, 1)
	nic := n.NICs[0]
	nic.Enqueue(PacketSpec{Dst: 5, Class: 0, Size: 1})
	cw := checkpoint.NewWriter()
	if err := n.SaveState(cw); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := cw.WriteTo(&ck, 0); err != nil {
		t.Fatal(err)
	}
	block := func(what string) {
		t.Helper()
		nic.LocalMirror[0].Busy = true // as if an earlier packet held the VC
		n.Step()
		if !nic.injBlocked || nic.cur != nil {
			t.Fatalf("%s: blocked head not memoized", what)
		}
		if err := n.checkMemos(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	block("mirror")
	nic.FreeLocalVC(0)
	if nic.injBlocked {
		t.Fatal("FreeLocalVC left the memo set")
	}
	block("enqueue")
	nic.Enqueue(PacketSpec{Dst: 6, Class: 0, Size: 1})
	if nic.injBlocked {
		t.Fatal("Enqueue left the memo set")
	}
	block("remove")
	nic.RemoveQueued(0, 1)
	if nic.injBlocked {
		t.Fatal("RemoveQueued left the memo set")
	}
	block("restore")
	r, err := checkpoint.NewReader(bytes.NewReader(ck.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	n.Step()
	if len(nic.Queues[0]) != 0 {
		t.Fatal("restored NIC with a free local VC did not inject")
	}
}

// TestInjectionQueueWindow drives one class queue through random
// enqueue/dequeue/remove sequences against a plain-slice model: the
// O(1) dequeue window must keep FIFO order, rewind when drained, and
// keep its backing array within a constant factor of the peak length.
func TestInjectionQueueWindow(t *testing.T) {
	n := bareNet(t, 1, 1, 1)
	nic := n.NICs[0]
	r := rng.New(77)
	var model []*Packet
	peak := 0
	for step := 0; step < 20000; step++ {
		popped := false
		switch k := r.Intn(10); {
		case k < 5 || len(model) == 0:
			model = append(model, nic.Enqueue(PacketSpec{Dst: 1, Class: 0, Size: 1}))
		case k < 9:
			nic.popHead(0)
			model = model[1:]
			popped = true
		default:
			i := r.Intn(len(model))
			nic.RemoveQueued(0, i)
			model = append(model[:i:i], model[i+1:]...)
		}
		peak = max(peak, len(model))
		q := nic.QueuedPackets(0)
		if len(q) != len(model) || nic.backlog != len(model) {
			t.Fatalf("step %d: queue len %d backlog %d, model %d", step, len(q), nic.backlog, len(model))
		}
		for i := range q {
			if q[i] != model[i] {
				t.Fatalf("step %d: queue order diverged at %d", step, i)
			}
		}
		if popped && len(q) == 0 && cap(q) != cap(nic.qBase[0]) {
			t.Fatalf("step %d: drained queue did not rewind", step)
		}
		if c := cap(nic.qBase[0]); c > 4*peak+8 {
			t.Fatalf("step %d: backing array %d for peak length %d", step, c, peak)
		}
	}
}
