package serve

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walPath returns a fresh journal path.
func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestWALRoundTrip(t *testing.T) {
	path := walPath(t)
	w, rep, err := OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 || rep.Dropped != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	sp := &JobSpec{Rate: 0.1}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: RecSubmit, ID: "j1", Tenant: "t", Spec: sp}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: RecRunDone, ID: "j1", Run: 0, Key: "k", Cached: true}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: RecJobDone, ID: "j1"}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep, err = OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 3 || rep.Dropped != 0 {
		t.Fatalf("replay got %d records, %d dropped", len(rep.Records), rep.Dropped)
	}
	r := rep.Records
	if r[0].Kind != RecSubmit || r[0].Spec == nil || r[0].Spec.Rate != 0.1 {
		t.Fatalf("submit record mangled: %+v", r[0])
	}
	if r[1].Kind != RecRunDone || !r[1].Cached || r[1].Key != "k" {
		t.Fatalf("run_done record mangled: %+v", r[1])
	}
	if r[0].Seq != 1 || r[1].Seq != 2 || r[2].Seq != 3 {
		t.Fatalf("sequence numbers %d %d %d", r[0].Seq, r[1].Seq, r[2].Seq)
	}
}

// TestWALTornTail: a partial final line (the classic kill -9 mid-write)
// is dropped on replay and truncated so later appends parse.
func TestWALTornTail(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Kind: RecSubmit, ID: "j1"}, true)
	w.Append(Record{Kind: RecJobDone, ID: "j1"}, false)
	w.Close()

	data, _ := os.ReadFile(path)
	// Tear the final record mid-frame.
	os.WriteFile(path, data[:len(data)-7], 0o644)

	w, rep, err := OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Dropped != 1 {
		t.Fatalf("torn tail: %d records, %d dropped", len(rep.Records), rep.Dropped)
	}
	// The journal must stay appendable and parseable end to end.
	if _, err := w.Append(Record{Kind: RecCancel, ID: "j1"}, true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rep, err = OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.Dropped != 0 {
		t.Fatalf("after truncate+append: %d records, %d dropped", len(rep.Records), rep.Dropped)
	}
	if rep.Records[1].Kind != RecCancel {
		t.Fatalf("appended record mangled: %+v", rep.Records[1])
	}
}

// TestWALCorruptMiddle: a bit flip mid-journal drops everything from
// the corrupt frame on — the suffix is untrusted once framing breaks.
func TestWALCorruptMiddle(t *testing.T) {
	path := walPath(t)
	w, _, _ := OpenWAL(OSFS{}, path)
	w.Append(Record{Kind: RecSubmit, ID: "j1"}, false)
	w.Append(Record{Kind: RecSubmit, ID: "j2"}, false)
	w.Append(Record{Kind: RecSubmit, ID: "j3"}, false)
	w.Close()

	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a payload byte in the second record, CRC now mismatches.
	l := []byte(lines[1])
	l[len(l)-5] ^= 0x40
	lines[1] = string(l)
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)

	_, rep, err := OpenWAL(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Dropped != 2 {
		t.Fatalf("corrupt middle: %d records, %d dropped", len(rep.Records), rep.Dropped)
	}
	if rep.Records[0].ID != "j1" {
		t.Fatalf("surviving record %+v", rep.Records[0])
	}
}

// TestWALFramePrefix pins the frame header grammar boot replay
// accepts: exactly eight hex digits (either case) of the payload's
// CRC, then one space. Anything else is a broken frame.
func TestWALFramePrefix(t *testing.T) {
	payload := `{"kind":"job_done","id":"j1","seq":1}`
	crc := crc32.Checksum([]byte(payload), walCRC)
	hex := fmt.Sprintf("%08x", crc)
	for _, tc := range []struct {
		prefix string
		ok     bool
	}{
		{hex + " ", true},
		{strings.ToUpper(hex) + " ", true},
		{hex[1:] + " ", false},               // seven digits
		{hex + "0 ", false},                  // nine digits
		{hex[:7] + "z ", false},              // non-hex digit
		{"+" + hex[1:] + " ", false},         // sign
		{" " + hex[1:] + " ", false},         // leading space
		{"0x" + hex[2:] + " ", false},        // radix prefix
		{hex + "\t", false},                  // wrong separator
		{fmt.Sprintf("%08x ", crc^1), false}, // wrong CRC
	} {
		rec, ok := decodeFrame([]byte(tc.prefix + payload))
		if ok != tc.ok {
			t.Errorf("prefix %q: decoded=%v, want %v", tc.prefix, ok, tc.ok)
		}
		if ok && (rec.Kind != RecJobDone || rec.ID != "j1") {
			t.Errorf("prefix %q: record mangled: %+v", tc.prefix, rec)
		}
	}
}

// TestReplayNextJobID: boot replay continues job numbering past the
// highest "j<n>" ID in the journal; IDs of any other shape never move
// it.
func TestReplayNextJobID(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(OSFS{}, filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	sp := &JobSpec{Rate: 0.1}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j7", "j41", "j99x", "x500", "j-3"} {
		if _, err := w.Append(Record{Kind: RecSubmit, ID: id, Tenant: "t", Spec: sp}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(Record{Kind: RecJobDone, ID: id}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Options{Dir: dir, Workers: 1})
	st, err := s.Submit("", []byte(`{"rates":[0.02],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j42" {
		t.Fatalf("first job after replay got ID %s, want j42", st.ID)
	}
}
