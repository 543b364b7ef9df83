package fabric_test

// Full-stack observability tests: a coordinator-side trace stitched
// across the wire from a real worker over loopback TCP, and a
// coordinator flight trigger fanned out to a worker with a correlated
// trigger ID.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/fabric"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// stitchWorker starts a worker with its own obs registry so worker-side
// spans reach the coordinator only via the traced-reply wrapper, never
// by sharing obs.Default() in-process.
func stitchWorker(t *testing.T) (*fabric.Worker, *obs.Registry) {
	t.Helper()
	w, err := fabric.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	reg := obs.NewRegistry()
	w.SetObsRegistry(reg)
	return w, reg
}

// TestCrossProcessTraceStitch is the tentpole acceptance test: an
// ingest batch traced on the coordinator must render as ONE tree on
// /tracez with the worker's spans inside it — root → fabric_rpc →
// worker_absorb — even though the worker ran in its own registry (as a
// separate process would) and its records crossed the wire on the ack.
func TestCrossProcessTraceStitch(t *testing.T) {
	w, workerReg := stitchWorker(t)
	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 5}
	r := fabric.DialRemote("w0", w.Addr(), 0, scfg, quietRemote())
	defer r.Close()

	root := obs.StartTrace("ingest_batch")
	if _, err := r.Absorb(root.Context(), testVecs(32, 8, 11), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(root.Context()); err != nil {
		t.Fatal(err)
	}
	rootCtx := root.Context()
	root.End() // finalizes the trace for the trace store

	var trace obs.TraceRecord
	var found bool
	for _, tr := range obs.Default().Traces() {
		if tr.Trace == rootCtx.Trace {
			trace, found = tr, true
			break
		}
	}
	if !found {
		t.Fatalf("trace %s not retained; store holds %d traces", rootCtx.Trace, len(obs.Default().Traces()))
	}
	if trace.Root != "ingest_batch" {
		t.Errorf("trace root %q, want ingest_batch", trace.Root)
	}

	byID := make(map[obs.ID]obs.SpanRecord, len(trace.Spans))
	count := map[string]int{}
	for _, sp := range trace.Spans {
		byID[sp.Span] = sp
		count[sp.Name]++
	}
	// Coordinator legs and worker legs must both be present: one
	// fabric_rpc per RPC (absorb + state fetch), each with its
	// wire_encode and fabric_rtt children, plus the worker-side spans
	// that crossed back on the acks.
	for name, want := range map[string]int{
		"fabric_rpc": 2, "wire_encode": 2, "fabric_rtt": 2,
		"worker_absorb": 1, "worker_state": 1,
	} {
		if count[name] < want {
			t.Errorf("trace holds %d %q span(s), want >= %d (spans: %v)", count[name], name, want, count)
		}
	}

	// Every span's parent chain must reach the root — the stitched tree
	// is connected, with worker spans parented under coordinator RPC
	// spans.
	for _, sp := range trace.Spans {
		cur := sp
		for hops := 0; cur.Parent != 0; hops++ {
			if hops > len(trace.Spans) {
				t.Fatalf("parent cycle walking up from %s", sp.Name)
			}
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s has unretained parent %s", sp.Name, cur.Parent)
			}
			cur = parent
		}
		if cur.Span != rootCtx.Span {
			t.Errorf("span %s does not chain to the ingest_batch root", sp.Name)
		}
	}
	for _, sp := range trace.Spans {
		if sp.Name != "worker_absorb" {
			continue
		}
		if parent := byID[sp.Parent]; parent.Name != "fabric_rpc" {
			t.Errorf("worker_absorb parented under %q, want fabric_rpc", parent.Name)
		}
	}

	// The worker timed its spans in its own registry, and its trace
	// store retains no trace of its own: the tree lives on the
	// coordinator, which stitched the worker's records in above.
	if n := workerReg.Histogram(obs.StageHistogramName, obs.L("stage", "worker_absorb")).Count(); n != 1 {
		t.Errorf("worker registry timed %d worker_absorb span(s), want 1", n)
	}
	if n := len(workerReg.Traces()); n != 0 {
		t.Errorf("worker registry retains %d trace(s), want 0", n)
	}
}

// TestFleetFlightFanout: a coordinator-side flight trigger must fan out
// over the fabric — the worker dumps its own ring tagged with the
// coordinator's trigger ID, and the fan-out is journaled with the
// correlated dump name.
func TestFleetFlightFanout(t *testing.T) {
	w, workerReg := stitchWorker(t)
	wdir, cdir := t.TempDir(), t.TempDir()
	wfr, err := workerReg.ArmFlightRecorder(obs.FlightConfig{Dir: wdir, Identity: "worker0"})
	if err != nil {
		t.Fatal(err)
	}
	defer wfr.Close()

	scfg := sketch.Config{Ell0: 8, Beta: 1, Seed: 5}
	r := fabric.DialRemote("worker0", w.Addr(), 0, scfg, quietRemote())
	defer r.Close()
	cancel := fabric.ArmFleetFlight([]*fabric.Remote{r})
	defer cancel()

	// Arming replaces any recorder a previous test left on the default
	// registry; the fresh recorder has no cooldown pending.
	cfr, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{Dir: cdir, Identity: "coordinator"})
	if err != nil {
		t.Fatal(err)
	}
	defer cfr.Close()

	sinceSeq := int64(0)
	if evs := audit.Default().Query(audit.Query{Last: 1}); len(evs) > 0 {
		sinceSeq = evs[0].Seq
	}

	path := obs.Default().FlightTrigger("test_incident")
	if path == "" {
		t.Fatal("coordinator flight trigger produced no dump")
	}
	base := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	parts := strings.Split(base, "-")
	id := parts[len(parts)-1]
	if id == "" {
		t.Fatalf("cannot parse trigger ID from %q", base)
	}

	// The fan-out hook runs on its own goroutine; poll for the worker's
	// correlated dump and the journal entry.
	deadline := time.Now().Add(5 * time.Second)
	var workerDump string
	for workerDump == "" && time.Now().Before(deadline) {
		entries, _ := os.ReadDir(wdir)
		for _, e := range entries {
			if strings.Contains(e.Name(), "worker0") && strings.Contains(e.Name(), id) {
				workerDump = e.Name()
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if workerDump == "" {
		t.Fatalf("worker wrote no dump carrying trigger ID %s", id)
	}

	var journaled bool
	for !journaled && time.Now().Before(deadline) {
		for _, ev := range audit.Default().Query(audit.Query{Kind: audit.KindFlightFanout, SinceSeq: sinceSeq}) {
			if strings.Contains(ev.Msg, id) && strings.Contains(ev.Msg, "worker0:"+workerDump) {
				journaled = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !journaled {
		t.Fatalf("no flight_fanout journal event names trigger %s and dump %s", id, workerDump)
	}
}
