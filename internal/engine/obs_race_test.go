package engine_test

// Observability hammer and trace-connectivity tests, meant for -race:
// endpoint scrapers (/metrics, /statusz, /tracez, /metrics.json) pound
// the obs handler while a 4-shard engine runs its full ingest →
// preprocess → route → shard-sketch → reconcile loop, so the race
// detector sees every edge between the hot path's span/trace writes
// and the HTTP readers' snapshots. Afterwards the retained traces are
// checked for the tentpole invariant: one batch = one connected trace.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/obs"
	"arams/internal/sketch"
)

func testImages(n, side int, seed uint64) []*imgproc.Image {
	vecs := testVecs(n, side*side, seed)
	ims := make([]*imgproc.Image, n)
	for i := range ims {
		im := imgproc.NewImage(side, side)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				im.Set(x, y, vecs[i][y*side+x])
			}
		}
		ims[i] = im
	}
	return ims
}

func TestEngineObsScrapeHammer(t *testing.T) {
	e := engine.New(engine.Config{
		Shards: 4,
		Sketch: sketch.Config{Ell0: 5, Beta: 0.9, Seed: 11},
		Window: 64,
	})
	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/statusz", "/tracez", "/tracez?format=json", "/metrics.json"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}

	const batches, batchLen, side = 16, 8, 6
	ims := testImages(batches*batchLen, side, 3)
	for b := 0; b < batches; b++ {
		tags := make([]int, batchLen)
		for i := range tags {
			tags[i] = b*batchLen + i
		}
		e.IngestBatch(ims[b*batchLen:(b+1)*batchLen], tags)
		_, _ = e.Basis(4) // forces reconcile traffic between batches
	}
	close(stop)
	scrapers.Wait()

	if got := e.Ingested(); got != batches*batchLen {
		t.Fatalf("ingested %d, want %d", got, batches*batchLen)
	}
	assertConnectedIngestTrace(t, 4, batchLen)
}

// assertConnectedIngestTrace scans the default registry for retained
// ingest_batch traces of frames-long batches into a shards-wide engine
// and requires at least one to be a fully connected tree containing
// the preprocess and per-shard sketch legs. The registry is
// process-wide, so traces whose root carries another shard count or
// batch length (a short batch reaches fewer shards) were left by an
// earlier test and are skipped.
func assertConnectedIngestTrace(t *testing.T, shards, frames int) {
	t.Helper()
	var checked int
	for _, tr := range obs.Default().Traces() {
		if tr.Root != "ingest_batch" {
			continue
		}
		foreign := false
		for _, sp := range tr.Spans {
			if sp.Parent == 0 && sp.Name == "ingest_batch" &&
				(sp.Attrs["shards"] != strconv.Itoa(shards) || sp.Attrs["frames"] != strconv.Itoa(frames)) {
				foreign = true
			}
		}
		if foreign {
			continue
		}
		byID := make(map[obs.ID]obs.SpanRecord, len(tr.Spans))
		names := map[string]int{}
		for _, sp := range tr.Spans {
			if sp.Trace != tr.Trace {
				t.Fatalf("span %s in trace %s carries trace %s", sp.Name, tr.Trace, sp.Trace)
			}
			byID[sp.Span] = sp
			names[sp.Name]++
		}
		for _, sp := range tr.Spans {
			cur := sp
			for cur.Parent != 0 {
				parent, ok := byID[cur.Parent]
				if !ok {
					t.Fatalf("trace %s: span %s has unretained parent — disconnected trace", tr.Trace, sp.Name)
				}
				cur = parent
			}
			if cur.Name != "ingest_batch" {
				t.Fatalf("trace %s: span %s roots at %q, not ingest_batch", tr.Trace, sp.Name, cur.Name)
			}
		}
		if names["preprocess"] == 0 {
			continue // vec-only ingest; keep looking for an image batch
		}
		if names["shard_sketch"] != shards {
			t.Fatalf("trace %s: %d shard_sketch spans, want %d", tr.Trace, names["shard_sketch"], shards)
		}
		if names["route"] == 0 {
			t.Fatalf("trace %s: multi-shard batch has no route span", tr.Trace)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no connected ingest_batch trace with preprocess+shard legs retained")
	}
}
