package serve

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
)

// benchJournal writes a journal of jobs completed jobs in the shape of
// perfbench's seecd-mixed restart: per job one submit of a 4x4 SEEC
// spec with four rates, four run_done records (the last two cached)
// and one job_done, so six records per job.
func benchJournal(b *testing.B, jobs int) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "wal.log")
	w, _, err := OpenWAL(OSFS{}, path)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for j := 0; j < jobs; j++ {
		lo, hi := 0.08+0.02*rng.Float64(), 0.14+0.02*rng.Float64()
		sp, err := DecodeJobSpec(fmt.Appendf(nil,
			`{"scheme":"seec","rows":4,"cols":4,"warmup":1000,"sim_cycles":8000,"seed":%d,"rates":[%v,%v,%v,%v]}`,
			rng.Uint64()>>11+1, lo, hi, lo, hi))
		if err != nil {
			b.Fatal(err)
		}
		id := fmt.Sprintf("j%d", j+1)
		recs := []Record{{Kind: RecSubmit, ID: id, Tenant: "prior", Spec: sp}}
		for run, cfg := range sp.Configs() {
			recs = append(recs, Record{Kind: RecRunDone, ID: id, Run: run, Key: CacheKey(cfg), Cached: run >= 2})
		}
		recs = append(recs, Record{Kind: RecJobDone, ID: id})
		for _, rec := range recs {
			if _, err := w.Append(rec, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// replayJournal is a gateway restart's journal half: OpenWAL reads and
// decodes the journal at path and fold rebuilds the job table from it.
func replayJournal(b *testing.B, path string) *Server {
	b.Helper()
	w, rep, err := OpenWAL(OSFS{}, path)
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Records) != 12000 || rep.Dropped != 0 {
		b.Fatalf("replayed %d records, dropped %d", len(rep.Records), rep.Dropped)
	}
	s := &Server{jobs: make(map[string]*job), nextJob: 1}
	s.fold(rep)
	if len(s.jobs) != 2000 {
		b.Fatalf("folded %d jobs", len(s.jobs))
	}
	w.Close()
	return s
}

// BenchmarkWALReplay replays a 2,000-job, 12,000-record journal. Fold
// only sets each job's and run's state; no run's Config or cache key is
// derived until the job is run or viewed.
func BenchmarkWALReplay(b *testing.B) {
	path := benchJournal(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayJournal(b, path)
	}
}

var benchViews []JobStatus

// BenchmarkWALReplayViews is the first Jobs() after that replay: it
// derives every job's Configs and 8,000 cache keys, the cost replay no
// longer pays. The replay itself is not timed.
func BenchmarkWALReplayViews(b *testing.B) {
	path := benchJournal(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := replayJournal(b, path)
		b.StartTimer()
		benchViews = s.Jobs()
	}
}

var benchKey string

// BenchmarkCacheKey computes one run's result cache key.
func BenchmarkCacheKey(b *testing.B) {
	sp, err := DecodeJobSpec([]byte(`{"scheme":"seec","rows":4,"cols":4,"warmup":1000,"sim_cycles":8000,"seed":7,"rate":0.093}`))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sp.Configs()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = CacheKey(cfg)
	}
}
