package fabric

// Reply-level tests for the worker's observability surface: the
// heartbeat health block, the reply form every response carries (with
// the worker's spans for a traced request), the fleet-stats snapshot
// RPC, and the flight fan-out RPC. These exercise w.reply directly (no
// sockets) so they can reach the unexported codecs and assert exact
// frame semantics.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// newHandleWorker starts a worker with its own obs registry (so test
// spans never land in obs.Default()) and sends it a hello so ingest
// RPCs have a backend.
func newHandleWorker(t *testing.T) (*Worker, *obs.Registry) {
	t.Helper()
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	reg := obs.NewRegistry()
	w.SetObsRegistry(reg)

	hello := HelloPayload{Shard: 1, Cfg: sketch.Config{Ell0: 4, Beta: 1}}
	if resp := w.reply(ckpt.WireFrame{Type: MsgHello, Payload: hello.encode()}); resp.Type != MsgHelloAck {
		t.Fatalf("hello answered with type %d", resp.Type)
	}
	return w, reg
}

// unwrap splits a reply into its inner payload and span records.
func unwrap(t *testing.T, resp ckpt.WireFrame) ([]byte, []obs.SpanRecord) {
	t.Helper()
	inner, recs, err := unwrapReply(resp.Payload)
	if err != nil {
		t.Fatalf("reply of type %d is not in the reply form: %v", resp.Type, err)
	}
	return inner, recs
}

func ingestFrame(trace, span uint64, rows [][]float64) ckpt.WireFrame {
	return ckpt.WireFrame{
		Type: MsgIngest, Trace: trace, Span: span,
		Payload: IngestPayload{D: len(rows[0]), Rows: rows}.encode(),
	}
}

func TestWorkerHeartbeatHealthBlock(t *testing.T) {
	w, _ := newHandleWorker(t)
	resp := w.reply(ckpt.WireFrame{Type: MsgHeartbeat})
	if resp.Type != MsgHeartbeatAck {
		t.Fatalf("heartbeat answered with type %d", resp.Type)
	}
	payload, _ := unwrap(t, resp)
	hb, err := decodeHeartbeat(payload)
	if err != nil {
		t.Fatalf("decode heartbeat: %v", err)
	}
	if hb.Uptime <= 0 {
		t.Errorf("uptime %v, want > 0", hb.Uptime)
	}
	if hb.QueueDepth != 0 {
		t.Errorf("queue depth %d, want 0 (direct handle call)", hb.QueueDepth)
	}
	// Canonical re-encode: the payload must round-trip bytes.
	if got := hb.encode(); string(got) != string(payload) {
		t.Error("heartbeat does not re-encode canonically")
	}
}

func TestWorkerTracedReplyWrapsIngestAck(t *testing.T) {
	w, reg := newHandleWorker(t)
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}

	resp := w.reply(ingestFrame(7, 9, rows))
	if resp.Type != MsgIngestAck {
		t.Fatalf("traced ingest answered with type %d", resp.Type)
	}
	if resp.Trace != 7 || resp.Span != 9 {
		t.Fatalf("traced response does not echo request identity: trace=%d span=%d", resp.Trace, resp.Span)
	}
	inner, recs := unwrap(t, resp)
	ack, err := decodeIngestAck(inner)
	if err != nil {
		t.Fatalf("decode inner ack: %v", err)
	}
	if ack.Stats.Rows != 2 {
		t.Errorf("ack rows %d, want 2", ack.Stats.Rows)
	}
	if len(recs) != 1 {
		t.Fatalf("traced reply carries %d span records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "worker_absorb" {
		t.Errorf("span name %q, want worker_absorb", rec.Name)
	}
	if rec.Trace != 7 || rec.Parent != 9 || rec.Span == 0 {
		t.Errorf("span identity trace=%d parent=%d span=%d, want trace 7 parented under span 9", rec.Trace, rec.Parent, rec.Span)
	}
	if rec.Attrs["rows"] != "2" {
		t.Errorf("span rows attr %q, want 2", rec.Attrs["rows"])
	}
	// The worker timed the span in its own registry, and — the span's
	// parent living in the coordinator — finalized the trace there with
	// the span as its root, so the worker's own /tracez lists it.
	if n := reg.Histogram(obs.StageHistogramName, obs.L("stage", "worker_absorb")).Count(); n != 1 {
		t.Errorf("worker_absorb stage histogram counts %d, want 1", n)
	}
	traces := reg.Traces()
	if len(traces) != 1 {
		t.Fatalf("worker registry retains %d trace(s), want the traced ingest's", len(traces))
	}
	if tr := traces[0]; tr.Trace != 7 || tr.Root != "worker_absorb" || len(tr.Spans) != 1 || tr.Spans[0].Span != rec.Span {
		t.Errorf("worker trace %s rooted at %q with %d span(s), want trace 7 holding the worker_absorb span",
			tr.Trace, tr.Root, len(tr.Spans))
	}
}

// TestWorkerUntracedIngestCarriesNoSpans: an untraced request gets the
// same reply form as a traced one, with zero span records, no trace
// identity, and no worker span opened.
func TestWorkerUntracedIngestCarriesNoSpans(t *testing.T) {
	w, reg := newHandleWorker(t)
	resp := w.reply(ingestFrame(0, 0, [][]float64{{1, 2, 3}}))
	if resp.Type != MsgIngestAck {
		t.Fatalf("ingest answered with type %d", resp.Type)
	}
	if resp.Trace != 0 || resp.Span != 0 {
		t.Fatalf("untraced request got trace identity trace=%d span=%d", resp.Trace, resp.Span)
	}
	inner, recs := unwrap(t, resp)
	if len(recs) != 0 {
		t.Fatalf("untraced reply carries %d span records, want 0", len(recs))
	}
	if _, err := decodeIngestAck(inner); err != nil {
		t.Fatalf("inner ack does not decode: %v", err)
	}
	if n := len(reg.Traces()); n != 0 {
		t.Fatalf("untraced request left %d trace(s) in the worker's registry, want 0", n)
	}
	if n := reg.Histogram(obs.StageHistogramName, obs.L("stage", "worker_absorb")).Count(); n != 0 {
		t.Fatalf("untraced request opened %d worker span(s), want 0", n)
	}
}

// TestWorkerTracedErrorCarriesItsSpan: a traced request that fails
// answers MsgError in the reply form, echoing the request's trace
// identity and carrying the worker span with the error on it.
func TestWorkerTracedErrorCarriesItsSpan(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetObsRegistry(obs.NewRegistry())

	// Traced ingest before any hello: a request-level error.
	resp := w.reply(ingestFrame(3, 4, [][]float64{{1}}))
	if resp.Type != MsgError {
		t.Fatalf("ingest before hello answered with type %d", resp.Type)
	}
	if resp.Trace != 3 || resp.Span != 4 {
		t.Fatalf("error response does not echo request identity: trace=%d span=%d", resp.Trace, resp.Span)
	}
	inner, recs := unwrap(t, resp)
	ep, err := decodeError(inner)
	if err != nil {
		t.Fatalf("inner error payload does not decode: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("traced error carries %d span records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "worker_absorb" || rec.Trace != 3 || rec.Parent != 4 {
		t.Errorf("span %q trace=%d parent=%d, want worker_absorb under trace 3 span 4", rec.Name, rec.Trace, rec.Parent)
	}
	if rec.Attrs["error"] != ep.Msg {
		t.Errorf("span error attr %q, want the reply's message %q", rec.Attrs["error"], ep.Msg)
	}
}

func TestWorkerStatsReqSnapshotsRegistry(t *testing.T) {
	w, reg := newHandleWorker(t)
	reg.Counter("test_stats_total").Inc()

	resp := w.reply(ckpt.WireFrame{Type: MsgStatsReq})
	if resp.Type != MsgStats {
		t.Fatalf("stats req answered with type %d", resp.Type)
	}
	payload, _ := unwrap(t, resp)
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("stats payload does not unmarshal: %v", err)
	}
	var found bool
	for _, c := range snap.Counters {
		if c.Name == "test_stats_total" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot is missing the worker's counter: %+v", snap.Counters)
	}
}

func TestWorkerFlightReqDumpsWithTriggerID(t *testing.T) {
	w, reg := newHandleWorker(t)
	dir := t.TempDir()
	fr, err := reg.ArmFlightRecorder(obs.FlightConfig{Dir: dir, Identity: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	req := FlightReqPayload{ID: "deadbeef01", Reason: "test_incident"}
	resp := w.reply(ckpt.WireFrame{Type: MsgFlightReq, Payload: req.encode()})
	if resp.Type != MsgFlightAck {
		t.Fatalf("flight req answered with type %d", resp.Type)
	}
	payload, _ := unwrap(t, resp)
	ack, err := decodeFlightAck(payload)
	if err != nil {
		t.Fatalf("decode flight ack: %v", err)
	}
	if ack.Dump == "" {
		t.Fatal("armed worker reported no dump")
	}
	if !strings.Contains(ack.Dump, "deadbeef01") {
		t.Errorf("dump name %q does not carry the coordinator's trigger ID", ack.Dump)
	}
	if !strings.Contains(ack.Dump, "w0") {
		t.Errorf("dump name %q does not carry the worker identity", ack.Dump)
	}
	if _, err := os.Stat(filepath.Join(dir, ack.Dump)); err != nil {
		t.Errorf("dump file missing: %v", err)
	}
}

func TestWorkerFlightReqUnarmedAnswersEmpty(t *testing.T) {
	w, _ := newHandleWorker(t)
	resp := w.reply(ckpt.WireFrame{Type: MsgFlightReq,
		Payload: FlightReqPayload{ID: "abc", Reason: "r"}.encode()})
	if resp.Type != MsgFlightAck {
		t.Fatalf("flight req answered with type %d", resp.Type)
	}
	payload, _ := unwrap(t, resp)
	ack, err := decodeFlightAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Dump != "" {
		t.Errorf("unarmed worker reported dump %q, want empty", ack.Dump)
	}
}
