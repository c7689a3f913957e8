package serve

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
)

// storeMagic heads every result blob, followed by the payload CRC and
// a newline, then the payload itself:
//
//	SEECRES1 <crc32c-hex-8>\n
//	<payload bytes>
const storeMagic = "SEECRES1"

// Store is the content-addressed result object store:
//
//	<root>/objects/<key[:2]>/<key>             blobs, CRC-framed
//	<root>/objects/tmp/<key>.<nonce><n>.tmp    Puts being staged
//	<root>/quarantine/<key>.<n>                corrupt blobs, moved aside
//
// Writes are atomic and durable (staged file + fsync + rename + dir
// fsync); reads verify the CRC frame and quarantine corrupt blobs
// instead of serving them. The store is idempotent by construction:
// keys are content addresses of the run's semantics, so concurrent or
// repeated Puts of the same key write identical bytes and
// last-rename-wins is harmless. Hex shard names cannot collide with
// the staging directory's.
type Store struct {
	fs     FS
	root   string
	tmpDir string
	// nonce and tmpSeq make staged names unique per Put, across every
	// Store open on the root: two writers of the same key (a
	// resubmitted sweep racing its original, or seecd and a figures
	// run sharing the store) must not truncate or rename each other's
	// staged file. The nonce is 64 bits from math/rand/v2's global
	// generator, which every process seeds from the OS.
	nonce  string
	tmpSeq atomic.Uint64
}

// NewStore opens (creating if needed) the store rooted at root.
func NewStore(fs FS, root string) (*Store, error) {
	s := &Store{
		fs: fs, root: root,
		tmpDir: filepath.Join(root, "objects", "tmp"),
		nonce:  fmt.Sprintf("%016x", rand.Uint64()),
	}
	for _, d := range []string{s.tmpDir, filepath.Join(root, "quarantine")} {
		if err := fs.MkdirAll(d); err != nil {
			return nil, err
		}
	}
	s.sweepTemp()
	return s, nil
}

// sweepTemp removes the staged files a crash mid-Put left behind, with
// one read of the staging directory however many blobs the store
// holds. Best effort: a staged file is garbage, never served. A file
// that another live process is staging on the same root goes too, and
// that process's Put then fails (DESIGN §12.3).
func (s *Store) sweepTemp() {
	names, err := s.fs.ReadDir(s.tmpDir)
	if err != nil {
		return
	}
	for _, n := range names {
		s.fs.Remove(filepath.Join(s.tmpDir, n))
	}
}

// ValidKey reports whether key is a well-formed content address: the
// 64 lowercase-hex characters CacheKey produces. Keys arrive from the
// network path-segment-unescaped, so anything else — "../../wal.log"
// and friends — must be rejected before any filesystem access: a
// traversal key would not just read outside the store, it would let
// the quarantine path RENAME an arbitrary daemon-writable file aside.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the blob path for key. Callers validate key first, so
// the result always lives under <root>/objects.
func (s *Store) path(key string) string {
	return filepath.Join(s.root, "objects", key[:2], key)
}

// Put writes payload under key atomically and durably.
func (s *Store) Put(key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	dir := filepath.Join(s.root, "objects", key[:2])
	if err := s.fs.MkdirAll(dir); err != nil {
		return err
	}
	dst := s.path(key)
	tmp := filepath.Join(s.tmpDir, fmt.Sprintf("%s.%s%d.tmp", key, s.nonce, s.tmpSeq.Add(1)))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	frame := fmt.Appendf(nil, "%s %08x\n", storeMagic, crc32.Checksum(payload, walCRC))
	if _, err := f.Write(append(frame, payload...)); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, dst); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(dir)
}

// Get returns the payload stored under key. The second return is false
// on a miss. A blob that exists but fails frame validation is CORRUPT:
// it is moved to quarantine (never deleted — it is evidence) and Get
// reports a miss with the quarantine path in the error, so the caller
// re-simulates instead of serving garbage. err is non-nil only for the
// quarantine case and for IO failures other than not-exist.
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	if !ValidKey(key) {
		return nil, false, nil
	}
	data, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if p, valid := decodeBlob(data); valid {
		return p, true, nil
	}
	qpath, qerr := s.quarantine(key)
	if qerr != nil {
		return nil, false, fmt.Errorf("store: blob %s corrupt and quarantine failed: %w", key[:8], qerr)
	}
	return nil, false, fmt.Errorf("store: blob %s corrupt, quarantined to %s", key[:8], qpath)
}

// decodeBlob validates the frame and returns the payload. The header
// must be exactly the magic, one space, eight hex digits and a newline
// (parseHex8 is the WAL frame's CRC parser).
func decodeBlob(data []byte) ([]byte, bool) {
	const prefix = storeMagic + " "
	const headerLen = len(prefix) + 8 + 1
	if len(data) < headerLen || string(data[:len(prefix)]) != prefix || data[headerLen-1] != '\n' {
		return nil, false
	}
	crc, ok := parseHex8(data[len(prefix) : headerLen-1])
	if !ok {
		return nil, false
	}
	payload := data[headerLen:]
	if crc32.Checksum(payload, walCRC) != crc {
		return nil, false
	}
	return payload, true
}

// quarantine moves key's blob (a path under objects/ — callers have
// validated key) into the quarantine directory under a fresh name (the
// same blob can be quarantined more than once across restarts). The
// existence probe opens rather than reads — quarantined blobs can be
// large — and any error other than not-exist is fatal: retrying a
// broken quarantine dir forever would hang the read path.
func (s *Store) quarantine(key string) (string, error) {
	qdir := filepath.Join(s.root, "quarantine")
	const maxTries = 1000
	for n := 0; n < maxTries; n++ {
		dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", key, n))
		f, err := s.fs.Open(dst)
		if err == nil {
			f.Close() // name taken; try the next suffix
			continue
		}
		if !os.IsNotExist(err) {
			return "", err
		}
		if err := s.fs.Rename(s.path(key), dst); err != nil {
			return "", err
		}
		return dst, s.fs.SyncDir(qdir)
	}
	return "", fmt.Errorf("store: quarantine name space exhausted for %s", key[:8])
}

// QuarantineCount reports how many blobs sit in quarantine.
func (s *Store) QuarantineCount() int {
	names, err := s.fs.ReadDir(filepath.Join(s.root, "quarantine"))
	if err != nil {
		return 0
	}
	return len(names)
}
