package serve

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testKey = "ab0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd"

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(OSFS{}, filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(testKey); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"avg":12.5}`)
	if err := st.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(testKey)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get: %q ok=%v err=%v", got, ok, err)
	}
	// Idempotent re-put of identical content.
	if err := st.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuarantine: a blob that fails CRC is moved aside (preserved
// as evidence) and reported as a miss, never served.
func TestStoreQuarantine(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	st, err := NewStore(OSFS{}, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testKey, []byte(`{"avg":12.5}`)); err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(root, "objects", testKey[:2], testKey)
	data, _ := os.ReadFile(blob)
	data[len(data)-3] ^= 1 // flip a payload bit
	os.WriteFile(blob, data, 0o644)

	got, ok, err := st.Get(testKey)
	if ok || got != nil {
		t.Fatalf("corrupt blob served: %q", got)
	}
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("want quarantine verdict, got %v", err)
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatal("corrupt blob still in objects/")
	}
	if n := st.QuarantineCount(); n != 1 {
		t.Fatalf("quarantine count %d", n)
	}
	// The slot is now a plain miss; a fresh Put repopulates it.
	if _, ok, err := st.Get(testKey); ok || err != nil {
		t.Fatalf("after quarantine: ok=%v err=%v", ok, err)
	}
	if err := st.Put(testKey, []byte(`{"avg":12.5}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(testKey); !ok {
		t.Fatal("repopulated blob missing")
	}
}

// TestStoreRejectsMalformedKeys: anything that is not a 64-char
// lowercase-hex content address must never reach the filesystem. The
// dangerous case is a path-traversal key aimed at a sibling file: a
// pre-fix Get would read it, fail CRC validation, and QUARANTINE it —
// renaming a live file (the WAL, say) out from under the daemon.
func TestStoreRejectsMalformedKeys(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(OSFS{}, filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(victim, []byte("journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"ab",
		"../../wal.log",
		"../../../wal.log",
		strings.Repeat("z", 64),                  // right length, not hex
		strings.ToUpper(testKey),                 // hex but uppercase
		testKey[:41] + "/../../../../../wal.log", // length 64 with traversal
	}
	for _, key := range bad {
		if _, ok, err := st.Get(key); ok || err != nil {
			t.Fatalf("Get(%q): ok=%v err=%v, want plain miss", key, ok, err)
		}
		if err := st.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted a malformed key", key)
		}
	}
	data, err := os.ReadFile(victim)
	if err != nil || string(data) != "journal" {
		t.Fatalf("sibling file touched: %q err=%v", data, err)
	}
	if n := st.QuarantineCount(); n != 0 {
		t.Fatalf("malformed keys caused %d quarantines", n)
	}
}

// TestStoreSweepTemp: a tmp file left by a crash mid-Put is removed on
// the next open and never visible as a blob.
func TestStoreSweepTemp(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	if _, err := NewStore(OSFS{}, root); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "objects", testKey[:2])
	os.MkdirAll(dir, 0o755)
	stale := filepath.Join(dir, testKey+".tmp")
	os.WriteFile(stale, []byte("partial"), 0o644)
	if _, err := NewStore(OSFS{}, root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale tmp survived reopen")
	}
}

// TestStoreTruncatedBlob: a torn write (header only, payload missing)
// quarantines rather than panics.
func TestStoreTruncatedBlob(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	st, _ := NewStore(OSFS{}, root)
	dir := filepath.Join(root, "objects", testKey[:2])
	os.MkdirAll(dir, 0o755)
	os.WriteFile(filepath.Join(dir, testKey), []byte("SEECRES1 0000"), 0o644)
	if _, ok, err := st.Get(testKey); ok || err == nil {
		t.Fatalf("truncated blob: ok=%v err=%v", ok, err)
	}
}

// TestStoreRejectsLooseHeaders: the blob header is exactly the magic,
// one space, eight hex digits and a newline. Each header below carries
// the payload's true CRC but in a malformed spelling — unpadded,
// trailed by junk, after two spaces — and must be refused and
// quarantined, never served.
func TestStoreRejectsLooseHeaders(t *testing.T) {
	// A payload whose CRC has a leading zero digit, so the unpadded
	// spelling is shorter than eight digits.
	var payload []byte
	var crc uint32
	for i := 0; ; i++ {
		payload = fmt.Appendf(nil, `{"avg":%d}`, i)
		if crc = crc32.Checksum(payload, walCRC); crc < 1<<28 {
			break
		}
	}
	root := filepath.Join(t.TempDir(), "results")
	st, err := NewStore(OSFS{}, root)
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(root, "objects", testKey[:2], testKey)
	if err := os.MkdirAll(filepath.Dir(blob), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(header string) {
		t.Helper()
		if err := os.WriteFile(blob, append([]byte(header), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(fmt.Sprintf("SEECRES1 %08x\n", crc))
	if got, ok, err := st.Get(testKey); !ok || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("well-formed header: %q ok=%v err=%v", got, ok, err)
	}
	for i, header := range []string{
		fmt.Sprintf("SEECRES1 %x\n", crc),
		fmt.Sprintf("SEECRES1 %08xjunk\n", crc),
		fmt.Sprintf("SEECRES1  %08x\n", crc),
	} {
		write(header)
		got, ok, err := st.Get(testKey)
		if ok || got != nil {
			t.Fatalf("header %q: blob served: %q", header, got)
		}
		if err == nil || !strings.Contains(err.Error(), "quarantined") {
			t.Fatalf("header %q: want quarantine verdict, got %v", header, err)
		}
		if _, err := os.Stat(blob); !os.IsNotExist(err) {
			t.Fatalf("header %q: blob still in objects/", header)
		}
		if n := st.QuarantineCount(); n != i+1 {
			t.Fatalf("header %q: quarantine count %d, want %d", header, n, i+1)
		}
	}
}
