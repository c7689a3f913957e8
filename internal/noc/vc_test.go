package noc

import (
	"testing"
	"testing/quick"
)

func mkPkt(id uint64, size int) *Packet {
	return &Packet{ID: id, Src: 0, Dst: 1, Size: size}
}

func TestVCFIFOOrder(t *testing.T) {
	vc := NewVC(0, 5)
	p := mkPkt(1, 5)
	vc.Activate(p, 0)
	for i := 0; i < 5; i++ {
		vc.Push(NewFlit(p, i))
	}
	for i := 0; i < 5; i++ {
		f := vc.Pop()
		if int(f.Seq) != i {
			t.Fatalf("popped seq %d want %d", f.Seq, i)
		}
	}
	if !vc.Empty() {
		t.Fatal("vc should be empty")
	}
}

func TestVCWraparound(t *testing.T) {
	// Push/pop interleaved so the ring buffer wraps several times.
	vc := NewVC(0, 3)
	p := mkPkt(1, 100)
	vc.Activate(p, 0)
	seqIn, seqOut := 0, 0
	for round := 0; round < 10; round++ {
		for !vc.Full() {
			vc.Push(NewFlit(p, seqIn))
			seqIn++
		}
		for !vc.Empty() {
			if f := vc.Pop(); int(f.Seq) != seqOut {
				t.Fatalf("wrap: got %d want %d", f.Seq, seqOut)
			}
			seqOut++
		}
	}
}

func TestVCOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic (flow-control violation)")
		}
	}()
	vc := NewVC(0, 2)
	p := mkPkt(1, 3)
	vc.Activate(p, 0)
	vc.Push(NewFlit(p, 0))
	vc.Push(NewFlit(p, 1))
	vc.Push(NewFlit(p, 2))
}

func TestVCPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty VC must panic")
		}
	}()
	NewVC(0, 2).Pop()
}

func TestVCDoubleActivatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("activating an Active VC must panic (single packet per VC)")
		}
	}()
	vc := NewVC(0, 5)
	vc.Activate(mkPkt(1, 1), 0)
	vc.Activate(mkPkt(2, 1), 0)
}

func TestVCReleaseWithFlitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a non-empty VC must panic")
		}
	}()
	vc := NewVC(0, 5)
	p := mkPkt(1, 2)
	vc.Activate(p, 0)
	vc.Push(NewFlit(p, 0))
	vc.Release()
}

func TestVCHasWholePacket(t *testing.T) {
	vc := NewVC(0, 5)
	p := mkPkt(1, 3)
	vc.Activate(p, 0)
	if vc.HasWholePacket() {
		t.Fatal("no flits yet")
	}
	vc.Push(NewFlit(p, 0))
	vc.Push(NewFlit(p, 1))
	if vc.HasWholePacket() {
		t.Fatal("missing tail")
	}
	vc.Push(NewFlit(p, 2))
	if !vc.HasWholePacket() {
		t.Fatal("whole packet present")
	}
	vc.Pop()
	if vc.HasWholePacket() {
		t.Fatal("head departed: no longer whole")
	}
}

func TestVCBlockedFor(t *testing.T) {
	vc := NewVC(0, 5)
	p := mkPkt(1, 1)
	vc.Activate(p, 100)
	vc.Push(NewFlit(p, 0))
	if vc.BlockedFor(150) != 50 {
		t.Fatalf("blocked %d want 50", vc.BlockedFor(150))
	}
	vc.LastMove = 140
	if vc.BlockedFor(150) != 10 {
		t.Fatalf("blocked %d want 10", vc.BlockedFor(150))
	}
	idle := NewVC(1, 5)
	if idle.BlockedFor(1000) != 0 {
		t.Fatal("idle VC is never blocked")
	}
}

func TestFlitKinds(t *testing.T) {
	p := mkPkt(1, 3)
	if !NewFlit(p, 0).IsHead() || NewFlit(p, 0).IsTail() {
		t.Fatal("seq 0 of 3 is head only")
	}
	if NewFlit(p, 1).IsHead() || NewFlit(p, 1).IsTail() {
		t.Fatal("seq 1 of 3 is body")
	}
	if !NewFlit(p, 2).IsTail() {
		t.Fatal("seq 2 of 3 is tail")
	}
	single := mkPkt(2, 1)
	f := NewFlit(single, 0)
	if !f.IsHead() || !f.IsTail() {
		t.Fatal("single-flit packet is head and tail")
	}
	if (Flit{}).Valid() {
		t.Fatal("zero flit is invalid")
	}
}

// TestVCAtRandomAccess checks At() against pop order.
func TestVCAtRandomAccess(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%5) + 1
		vc := NewVC(0, 5)
		p := mkPkt(1, n)
		vc.Activate(p, 0)
		for i := 0; i < n; i++ {
			vc.Push(NewFlit(p, i))
		}
		for i := 0; i < n; i++ {
			if int(vc.At(i).Seq) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
