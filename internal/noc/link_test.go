package noc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestDataLinkSecondSendPanics: a second flit on one link in one cycle
// is a simulator bug. SA relies on this guard instead of checking
// whether an output link is busy before granting it.
func TestDataLinkSecondSendPanics(t *testing.T) {
	n := bareNet(t, 1, 1, 2)
	l := n.Routers[0].Out[East].Link
	p := &Packet{ID: 1, Dst: 1, Size: 2}
	l.Send(NewFlit(p, 0), 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "two flits on link") {
			t.Fatalf("second Send in one cycle: recovered %q, want the two-flits panic", msg)
		}
	}()
	l.Send(NewFlit(p, 1), 0)
}

// TestEjectCreditLinkOverflowsSlots: a NIC that consumes more packets in
// one cycle than its ejection credit link has inline slots stages every
// credit, in send order; the grown queue round-trips through a
// checkpoint byte for byte and is reused, not regrown, the next time.
func TestEjectCreditLinkOverflowsSlots(t *testing.T) {
	const dst = 5
	n := bareNet(t, 1, 1, 2)
	l := n.NICs[dst].EjCreditOut
	ejN := len(n.NICs[dst].Ej)
	if ejN <= len(l.slots) {
		t.Fatalf("config has %d ejection VCs, need more than the %d inline slots", ejN, len(l.slots))
	}
	// Fill every ejection VC of the NIC with a complete packet; the next
	// Step consumes them all and stages one credit per VC.
	fill := func(net *Network, firstID uint64) {
		for i := 0; i < ejN; i++ {
			pkt := &Packet{ID: firstID + uint64(i), Src: 0, Dst: dst, Size: 1}
			if !net.EjectDirect([]Flit{NewFlit(pkt, 0)}) {
				t.Fatalf("no free ejection VC for packet %d", i)
			}
			net.InFlight++
		}
	}
	fill(n, 100)
	n.Step()
	want := make([]Credit, ejN)
	for i := range want {
		want[i] = Credit{VC: i, Count: 0, Free: true}
	}
	if !reflect.DeepEqual(l.pending, want) {
		t.Fatalf("staged credits %+v, want %+v", l.pending, want)
	}
	if &l.pending[0] == &l.slots[0] {
		t.Fatal("queue still aliases the inline slots after outgrowing them")
	}
	grown := &l.pending[0]

	var ck bytes.Buffer
	if err := n.Save(&ck); err != nil {
		t.Fatal(err)
	}
	m := bareNet(t, 1, 1, 2)
	if err := m.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := m.NICs[dst].EjCreditOut.pending; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored credits %+v, want %+v", got, want)
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.Bytes(), again.Bytes()) {
		t.Fatal("checkpoint of the restored network differs from the original")
	}

	// Delivery applies every credit: the router-side mirrors are free.
	for _, net := range []*Network{n, m} {
		net.Step()
		for v, o := range net.Routers[dst].Out[Local].VCs {
			if o.Busy {
				t.Fatalf("ejection mirror %d still busy after its credit was delivered", v)
			}
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	fill(n, 200)
	n.Step()
	if !reflect.DeepEqual(l.pending, want) || &l.pending[0] != grown {
		t.Fatal("second overflow did not reuse the grown queue")
	}
}
