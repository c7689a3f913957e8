package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Journal record kinds. A job's durable life is: one submit record
// (fsynced before the submission is acknowledged), zero or more
// run_done records as its runs complete, and one terminal record
// (job_done, job_fail or cancel). A job with a submit but no terminal
// record is in flight; boot replay re-enqueues it, and the
// content-addressed cache plus checkpoint spool make re-execution of
// its already-finished runs free and its interrupted run resumable.
// suspend records are observability only — they mark a graceful drain
// so an operator can tell a clean SIGTERM from a crash.
const (
	RecSubmit  = "submit"
	RecRunDone = "run_done"
	RecJobDone = "job_done"
	RecJobFail = "job_fail"
	RecCancel  = "cancel"
	RecSuspend = "suspend"
)

// Record is one journal entry. Fields beyond Seq/Kind/ID are
// kind-specific and elided when empty.
type Record struct {
	Seq    int64    `json:"seq"`
	Kind   string   `json:"kind"`
	ID     string   `json:"id,omitempty"`
	Tenant string   `json:"tenant,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`   // submit
	Run    int      `json:"run,omitempty"`    // run_done: run index within the job
	Key    string   `json:"key,omitempty"`    // run_done: result cache key
	Cached bool     `json:"cached,omitempty"` // run_done: served from cache
	Err    string   `json:"err,omitempty"`    // job_fail: cause
}

// walCRC is the journal's frame checksum (Castagnoli, the usual
// storage-integrity polynomial).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL is the gateway's write-ahead journal: one CRC-framed JSON record
// per line ("crc32c-hex json\n"). Appends marked synchronous reach
// stable storage before they return — the acknowledgement barrier for
// submissions. Replay on boot verifies every frame and stops at the
// first torn or corrupt one, dropping the tail: a torn tail record is
// by construction one whose append never returned, so nothing
// acknowledged is lost.
type WAL struct {
	fs      FS
	path    string
	f       File
	nextSeq int64
	err     error // sticky: a failed append may have torn the tail
}

// Replay is what boot recovery learned from the journal.
type Replay struct {
	Records []Record
	// Dropped counts trailing lines discarded as torn or corrupt.
	Dropped int
}

// OpenWAL opens (creating if absent) the journal at path, replays its
// valid prefix, and positions the WAL for appending. The append handle
// deliberately ignores the dropped tail: new records are appended
// after it, and replay's first-bad-frame rule would re-drop the dead
// bytes — so OpenWAL instead rewrites the journal without the torn
// tail when one was found, keeping the file parseable end to end.
func OpenWAL(fs FS, path string) (*WAL, Replay, error) {
	data, err := fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Replay{}, err
	}
	var rep Replay
	valid := 0 // bytes of verified frames
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			rep.Dropped++ // torn final line: append never completed
			break
		}
		line := data[off : off+nl]
		rec, ok := decodeFrame(line)
		if !ok {
			// Corrupt frame: everything from here on is untrusted.
			rep.Dropped += countLines(data[off:])
			break
		}
		rep.Records = append(rep.Records, rec)
		off += nl + 1
		valid = off
	}
	if valid < len(data) {
		// Truncate the torn tail by atomic rewrite so future appends
		// land on a frame boundary.
		if err := rewriteWAL(fs, path, data[:valid]); err != nil {
			return nil, Replay{}, err
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, Replay{}, err
	}
	w := &WAL{fs: fs, path: path, f: f, nextSeq: 1}
	if n := len(rep.Records); n > 0 {
		w.nextSeq = rep.Records[n-1].Seq + 1
	}
	return w, rep, nil
}

// decodeFrame parses and verifies one "crc8hex json" line.
func decodeFrame(line []byte) (Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, false
	}
	want, ok := parseHex8(line[:8])
	if !ok {
		return Record{}, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, walCRC) != want {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// parseHex8 parses a frame's CRC field: exactly eight hex digits,
// either case, nothing else.
func parseHex8(b []byte) (uint32, bool) {
	if len(b) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint32(c)
	}
	return v, true
}

// countLines counts newline-terminated plus trailing partial lines.
func countLines(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// rewriteWAL atomically replaces the journal with the given verified
// prefix (tmp + fsync + rename + dir fsync).
func rewriteWAL(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// Append journals rec, stamping its sequence number. With sync set the
// record is fsynced before Append returns — the caller may then
// acknowledge it to a client. A failed append may leave a torn frame
// at the tail, so the error is sticky: every later Append fails too,
// and the torn tail is dropped by replay on the next boot. Nothing
// acknowledged is affected — acknowledgements only follow successful
// synced appends.
func (w *WAL) Append(rec Record, sync bool) (Record, error) {
	if w.err != nil {
		return rec, w.err
	}
	rec.Seq = w.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return rec, err // Record is a plain struct; cannot happen
	}
	frame := make([]byte, 0, len(payload)+10)
	frame = fmt.Appendf(frame, "%08x ", crc32.Checksum(payload, walCRC))
	frame = append(frame, payload...)
	frame = append(frame, '\n')
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return rec, w.err
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: fsync: %w", err)
			return rec, w.err
		}
	}
	w.nextSeq++
	return rec, nil
}

// Err returns the sticky append error, if any.
func (w *WAL) Err() error { return w.err }

// Close syncs and closes the journal.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	serr := w.f.Sync()
	cerr := w.f.Close()
	w.f = nil
	if w.err != nil {
		return w.err
	}
	if serr != nil {
		return serr
	}
	return cerr
}
