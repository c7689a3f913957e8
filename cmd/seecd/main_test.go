package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"seec"
	"seec/internal/serve"
)

// The crash test runs the real daemon — flag parsing, signal handling,
// HTTP wiring — via the helper-process trick: the test binary
// re-executes itself with mainEnv set and TestMain routes into main().
const mainEnv = "SEEC_SEECD_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one live seecd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches seecd against dir and waits for its announced
// address.
func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 {
				rest := line[i+len("http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		close(addrCh)
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok || a == "" {
			t.Fatal("seecd announced no address")
		}
		return &daemon{cmd: cmd, addr: a}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for seecd to start")
		return nil
	}
}

// get fetches a path, failing on non-200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	body, code, err := d.tryGet(path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	return body
}

// tryGet fetches a path, tolerating failures.
func (d *daemon) tryGet(path string) ([]byte, int, error) {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// post submits a body, returning response and status.
func (d *daemon) post(t *testing.T, path, body string) ([]byte, int) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return b, resp.StatusCode
}

// crashSpec is the workload: one real simulation long enough (~5s) to
// be SIGKILLed mid-run, with frequent checkpoints so little progress
// is lost.
const crashSpec = `{"rows":4,"cols":4,"warmup":1000,"sim_cycles":2000000,"rate":0.05,"seed":11}`

// TestSeecdCrashRestartResume is the live acceptance check for crash
// safety: boot the daemon, submit a job, SIGKILL the process mid-
// simulation (after at least one periodic checkpoint), restart on the
// same state directory, and assert the job resumes from its checkpoint
// and completes to exactly the bytes a direct library run produces.
// Then resubmit the same spec and assert it is served entirely from
// the cache — zero additional simulation.
func TestSeecdCrashRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real multi-second simulation across a daemon crash")
	}
	dir := t.TempDir()
	d1 := startDaemon(t, dir, "-checkpoint-every", "50000", "-workers", "1")

	body, code := d1.post(t, "/api/v1/jobs", crashSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, body)
	}
	var acked serve.JobStatus
	if err := json.Unmarshal(body, &acked); err != nil {
		t.Fatal(err)
	}

	// Wait until the run has checkpointed at least once, so the restart
	// provably resumes rather than starting over.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint save observed before deadline")
		}
		var status struct {
			CheckpointSaves int64 `json:"checkpoint_saves"`
		}
		if b, code, err := d1.tryGet("/status"); err == nil && code == 200 {
			json.Unmarshal(b, &status)
			if status.CheckpointSaves >= 1 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// kill -9: no drain, no suspend records, descriptors just vanish.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	// Restart on the same state directory.
	d2 := startDaemon(t, dir, "-checkpoint-every", "50000", "-workers", "1")
	var job serve.JobStatus
	if err := json.Unmarshal(d2.get(t, "/api/v1/jobs/"+acked.ID), &job); err != nil {
		t.Fatal(err)
	}
	if !job.Resumed {
		t.Fatalf("acknowledged job not resumed after crash: %+v", job)
	}
	deadline = time.Now().Add(3 * time.Minute)
	for job.State != serve.JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck after restart: %+v", job)
		}
		if job.State == serve.JobFailed || job.State == serve.JobCancelled {
			t.Fatalf("job finished %s after restart: %s", job.State, job.Error)
		}
		time.Sleep(100 * time.Millisecond)
		json.Unmarshal(d2.get(t, "/api/v1/jobs/"+acked.ID), &job)
	}

	// The restart must have restored the mid-run checkpoint, not rerun
	// from cycle zero.
	var status struct {
		CheckpointRestores int64 `json:"checkpoint_restores"`
	}
	json.Unmarshal(d2.get(t, "/status"), &status)
	if status.CheckpointRestores < 1 {
		t.Error("restarted daemon did not restore the run checkpoint")
	}

	// Byte identity with an uninterrupted in-process run of the same
	// semantics.
	gotPayload := d2.get(t, "/api/v1/results/"+job.Runs[0].Key)
	sp, err := serve.DecodeJobSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := seec.RunSyntheticCtx(context.Background(), sp.Configs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPayload, serve.EncodeResult(want)) {
		t.Fatalf("resumed result diverges from direct run:\n got %s\nwant %s",
			gotPayload, serve.EncodeResult(want))
	}

	// Resubmission is pure cache: no new simulation work.
	var before serve.Stats
	json.Unmarshal(d2.get(t, "/api/v1/stats"), &before)
	body, code = d2.post(t, "/api/v1/jobs", crashSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d: %s", code, body)
	}
	var again serve.JobStatus
	json.Unmarshal(body, &again)
	deadline = time.Now().Add(30 * time.Second)
	for again.State != serve.JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted job stuck: %+v", again)
		}
		time.Sleep(20 * time.Millisecond)
		json.Unmarshal(d2.get(t, "/api/v1/jobs/"+again.ID), &again)
	}
	if !again.Runs[0].Cached {
		t.Fatal("resubmitted run not served from cache")
	}
	var after serve.Stats
	json.Unmarshal(d2.get(t, "/api/v1/stats"), &after)
	if after.Simulations != before.Simulations {
		t.Fatalf("resubmit simulated: %d -> %d", before.Simulations, after.Simulations)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache hits %d -> %d", before.CacheHits, after.CacheHits)
	}
}

// TestSeecdRejectsBadSpec: the full HTTP stack turns a malformed spec
// into a typed 400, not a panic or a queued job.
func TestSeecdRejectsBadSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon child process")
	}
	d := startDaemon(t, t.TempDir())
	body, code := d.post(t, "/api/v1/jobs", `{"scheme":"warp"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad spec: %d: %s", code, body)
	}
	var e struct {
		Field string `json:"field"`
	}
	json.Unmarshal(body, &e)
	if e.Field != "scheme" {
		t.Fatalf("error envelope: %s", body)
	}
	var jobs []serve.JobStatus
	json.Unmarshal(d.get(t, "/api/v1/jobs"), &jobs)
	if len(jobs) != 0 {
		t.Fatalf("rejected spec was queued: %+v", jobs)
	}
}
