package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

// TestStoreSweepTemp: a file a crash mid-Put left in the staging
// directory is removed on the next open and never visible as a blob.
func TestStoreSweepTemp(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	if _, err := NewStore(OSFS{}, root); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(root, "objects", "tmp", testKey+".0123456789abcdef1.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(OSFS{}, root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale tmp survived reopen")
	}
}

// readDirFS records the directories ReadDir lists.
type readDirFS struct {
	FS
	dirs []string
}

func (f *readDirFS) ReadDir(dir string) ([]string, error) {
	f.dirs = append(f.dirs, dir)
	return f.FS.ReadDir(dir)
}

// framed returns payload as Put writes it, behind its CRC frame.
func framed(payload []byte) []byte {
	return fmt.Appendf(nil, "%s %08x\n%s", storeMagic, crc32.Checksum(payload, walCRC), payload)
}

// writeBlobs writes n well-framed blobs into root's shard directories
// directly, without Put's fsyncs.
func writeBlobs(tb testing.TB, root string, n int) {
	tb.Helper()
	blob := framed([]byte(`{"avg":12.5}`))
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		key := hex.EncodeToString(sum[:])
		dir := filepath.Join(root, "objects", key[:2])
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key), blob, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestStoreOpenReadsOneDir: opening a store reads the staging
// directory and nothing else, however many blobs the store holds.
func TestStoreOpenReadsOneDir(t *testing.T) {
	for _, blobs := range []int{0, 300} {
		root := filepath.Join(t.TempDir(), "results")
		writeBlobs(t, root, blobs)
		fs := &readDirFS{FS: OSFS{}}
		if _, err := NewStore(fs, root); err != nil {
			t.Fatal(err)
		}
		if want := []string{filepath.Join(root, "objects", "tmp")}; !reflect.DeepEqual(fs.dirs, want) {
			t.Fatalf("%d blobs: open read %q, want %q", blobs, fs.dirs, want)
		}
	}
}

// TestStoreLegacyShardTemp: a <key>.1.tmp that a crash left in a shard
// directory, where Put staged before objects/tmp existed, is never
// served, even when it holds a well-framed payload, and the store opens
// and reads normally around it.
func TestStoreLegacyShardTemp(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	dir := filepath.Join(root, "objects", testKey[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, testKey+".1.tmp"), framed([]byte(`{"avg":1}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(OSFS{}, root)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get(testKey); ok || err != nil {
		t.Fatalf("leftover tmp served: %q ok=%v err=%v", got, ok, err)
	}
	payload := []byte(`{"avg":12.5}`)
	if err := st.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get(testKey); !ok || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get: %q ok=%v err=%v", got, ok, err)
	}
	if n := st.QuarantineCount(); n != 0 {
		t.Fatalf("quarantine count %d", n)
	}
}

// hookFS runs afterCreate after each Create and beforeRename before
// each Rename.
type hookFS struct {
	FS
	afterCreate  func()
	beforeRename func()
}

func (f hookFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if f.afterCreate != nil {
		f.afterCreate()
	}
	return file, err
}

func (f hookFS) Rename(oldPath, newPath string) error {
	if f.beforeRename != nil {
		f.beforeRename()
	}
	return f.FS.Rename(oldPath, newPath)
}

// TestStoreTwoStoresOneRoot: two stores open on one root (seecd and a
// figures run sharing a cache directory) Put the same key, and B's
// Create falls between A's write and A's rename. Both Puts succeed and
// the blob is served whole. With names unique only per store, B's
// Create truncated A's staged file: A renamed an empty blob into place,
// the next Get quarantined it, and B's rename found no file.
func TestStoreTwoStoresOneRoot(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	payload := []byte(`{"avg":12.5}`)
	bCreated, releaseB := make(chan struct{}), make(chan struct{})
	bDone := make(chan error, 1)
	b, err := NewStore(hookFS{FS: OSFS{}, afterCreate: func() {
		close(bCreated)
		<-releaseB
	}}, root)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once // A's Rename runs again if its Get quarantines
	a, err := NewStore(hookFS{FS: OSFS{}, beforeRename: func() {
		once.Do(func() {
			go func() { bDone <- b.Put(testKey, payload) }()
			<-bCreated
		})
	}}, root)
	if err != nil {
		t.Fatal(err)
	}
	errA := a.Put(testKey, payload)
	got, ok, errGet := a.Get(testKey)
	close(releaseB)
	if errB := <-bDone; errA != nil || errB != nil {
		t.Fatalf("Put: A %v, B %v", errA, errB)
	}
	if !ok || errGet != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get between the Puts: %q ok=%v err=%v", got, ok, errGet)
	}
	if got, ok, err := b.Get(testKey); !ok || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after both Puts: %q ok=%v err=%v", got, ok, err)
	}
	if n := a.QuarantineCount(); n != 0 {
		t.Fatalf("quarantine count %d", n)
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

// BenchmarkStoreOpen opens a store holding 0 or 2,000 blobs, as every
// figures run and every seecd boot does.
func BenchmarkStoreOpen(b *testing.B) {
	for _, blobs := range []int{0, 2000} {
		b.Run(fmt.Sprintf("blobs=%d", blobs), func(b *testing.B) {
			root := filepath.Join(b.TempDir(), "results")
			writeBlobs(b, root, blobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewStore(OSFS{}, root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
