package audit

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"arams/internal/obs"
)

// EventKind classifies a journal entry.
type EventKind string

// Journal event kinds. The set is open — callers may record their own
// kinds — but these are the ones the built-in subsystems emit and the
// /audit endpoint knows how to summarize.
const (
	KindCertificate       EventKind = "certificate"        // periodic error-bound certificate
	KindAlarm             EventKind = "alarm"              // drift detector fired
	KindRankGrow          EventKind = "rank_grow"          // rank-adaptive ℓ growth
	KindCheckpointSave    EventKind = "checkpoint_save"    // sketch state checkpointed
	KindCheckpointRestore EventKind = "checkpoint_restore" // sketch state restored
	KindDeadlineMiss      EventKind = "deadline_miss"      // batch blew its frame budget
	KindFramesRejected    EventKind = "frames_rejected"    // frames with a non-finite element dropped before ingest
	KindRemoteLegLost     EventKind = "remote_leg_lost"    // remote merge leg dropped: its one fetch failed
	KindRemoteDegrade     EventKind = "remote_degrade"     // remote shard fell back to local sketching
	KindRemoteRecovery    EventKind = "remote_recovery"    // remote shard state restored + replayed after reconnect
	KindFlightFanout      EventKind = "flight_fanout"      // coordinator flight trigger fanned out to the worker fleet
	KindTenantAdmission   EventKind = "tenant_admission"   // tenant admitted to the multi-tenant registry
	KindTenantEvict       EventKind = "tenant_evict"       // tenant hibernated to disk (idle deadline or residency pressure)
	KindTenantRestore     EventKind = "tenant_restore"     // hibernated tenant restored from its checkpoint
)

// Attr is one numeric attribute of an event. Attributes are numeric on
// purpose: everything the audit layer journals is a measurement, and a
// closed {string key → float64} shape keeps the checkpoint codec and
// the JSONL sink trivial.
type Attr struct {
	Key string  `json:"k"`
	Val float64 `json:"v"`
}

// A is shorthand for constructing an Attr.
func A(key string, val float64) Attr { return Attr{Key: key, Val: val} }

// Event is one journal entry. Seq increases monotonically for the
// lifetime of the journal (it keeps counting across ring evictions and
// checkpoint/restore, so consumers can detect gaps).
type Event struct {
	Seq   int64     `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  EventKind `json:"kind"`
	Msg   string    `json:"msg"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Get returns the value of the named attribute, or def when absent.
func (e Event) Get(key string, def float64) float64 {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return def
}

// DefaultJournalCap bounds the default journal's ring. At one
// certificate per audit interval plus rare structural events this is
// hours of history in well under a MiB.
const DefaultJournalCap = 1024

// Journal is a bounded, append-only structured event log: a ring of
// the most recent events plus an optional line-delimited JSON sink
// that receives every event (the durable tail the ring drops). All
// methods are safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	seq int64
	// buf holds the retained events. It grows by append up to capacity,
	// so a journal that records few events holds few; once full it is a
	// ring whose oldest event, and the next one's slot, is at next.
	buf      []Event
	next     int
	capacity int
	sink     io.Writer
}

// NewJournal creates a journal retaining the last capacity events
// (capacity < 1 selects DefaultJournalCap). It allocates its ring as
// events arrive, not up front.
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultJournalCap
	}
	return &Journal{capacity: capacity}
}

var defaultJournal = NewJournal(DefaultJournalCap)

// Default returns the process-global journal, mirroring obs.Default():
// the sketch, parallel, and pipeline layers record into it and the
// /audit endpoint serves it.
func Default() *Journal { return defaultJournal }

// SetSink directs a copy of every subsequent event to w as one JSON
// object per line (pass nil to detach). The journal serializes writes;
// w need not be safe for concurrent use.
func (j *Journal) SetSink(w io.Writer) {
	j.mu.Lock()
	j.sink = w
	j.mu.Unlock()
}

// Record appends an event and returns it (with sequence number and
// timestamp filled in). It also bumps the per-kind journal counter in
// the default obs registry so event rates show up on /metrics.
func (j *Journal) Record(kind EventKind, msg string, attrs ...Attr) Event {
	j.mu.Lock()
	j.seq++
	ev := Event{Seq: j.seq, Time: time.Now(), Kind: kind, Msg: msg, Attrs: attrs}
	if len(j.buf) < j.capacity {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.next] = ev
		j.next = (j.next + 1) % j.capacity
	}
	sink := j.sink
	if sink != nil {
		// Write under the lock: the sink is typically an *os.File and
		// ordering matters more than the (rare) write latency.
		if b, err := json.Marshal(ev); err == nil {
			sink.Write(append(b, '\n'))
		}
	}
	j.mu.Unlock()
	obs.Default().Counter("arams_audit_journal_events_total", obs.L("kind", string(kind))).Inc()
	return ev
}

// Seq returns the sequence number of the most recent event (0 when
// nothing has been recorded).
func (j *Journal) Seq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	return j.Query(Query{})
}

// Query selects retained events. The zero Query returns everything.
type Query struct {
	// Kind filters to one event kind ("" = all).
	Kind EventKind
	// SinceSeq keeps only events with Seq > SinceSeq.
	SinceSeq int64
	// Last keeps only the most recent N matches (0 = all).
	Last int
}

// Query returns the retained events matching q, oldest first.
func (j *Journal) Query(q Query) []Event {
	j.mu.Lock()
	out := make([]Event, 0, len(j.buf))
	for i := range j.buf {
		ev := j.buf[(j.next+i)%len(j.buf)]
		if q.Kind != "" && ev.Kind != q.Kind {
			continue
		}
		if ev.Seq <= q.SinceSeq {
			continue
		}
		out = append(out, ev)
	}
	j.mu.Unlock()
	if q.Last > 0 && len(out) > q.Last {
		out = out[len(out)-q.Last:]
	}
	return out
}

// JournalState is the checkpointable snapshot of a journal: the
// sequence counter plus the retained ring, so a restored process
// resumes numbering where the crashed one stopped and keeps its
// recent history queryable.
type JournalState struct {
	Seq    int64
	Events []Event
}

// State snapshots the journal for checkpointing.
func (j *Journal) State() JournalState {
	return JournalState{Seq: j.Seq(), Events: j.Events()}
}

// Restore replaces the journal's contents with a checkpointed
// snapshot. The capacity, the ring's storage and the sink are kept;
// events beyond the capacity are dropped oldest-first.
func (j *Journal) Restore(st JournalState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := st.Events
	if len(evs) > j.capacity {
		evs = evs[len(evs)-j.capacity:]
	}
	clear(j.buf)
	j.buf = append(j.buf[:0], evs...)
	j.next = 0
	j.seq = st.Seq
	if n := len(j.buf); n > 0 && j.buf[n-1].Seq > j.seq {
		j.seq = j.buf[n-1].Seq
	}
}
