package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Flight recorder: a black box for post-mortems. It continuously
// captures the last Window of completed spans and periodic metric
// samples (gauge values — queue depths included — and counter deltas),
// and dumps the whole ring to a JSONL file when something goes wrong:
// a remote merge leg is lost, a drift alarm fires, or the frame-budget
// burn rate trips its threshold. The dump covers the seconds *before*
// the trigger, which is exactly the history a live /metrics scrape has
// already lost by the time anyone looks.

// FlightConfig parameterizes a recorder. Zero values select defaults.
type FlightConfig struct {
	// Dir receives the JSONL dump files (required; created if absent).
	Dir string
	// Identity is a stable process identity (e.g. "coordinator",
	// "worker0") embedded in dump filenames, so dumps from multiple
	// processes sharing one directory cannot collide or be confused.
	// Empty omits the segment (single-process layout).
	Identity string
	// Window is how much history the ring keeps (default 30s).
	Window time.Duration
	// SampleEvery is the metric-sampling cadence (default 500ms).
	SampleEvery time.Duration
	// Cooldown is the minimum spacing between dumps; triggers inside
	// the cooldown are counted but produce no file (default 10s).
	Cooldown time.Duration
}

// flightSpanCap bounds the span portion of the ring independently of
// Window, so a span storm cannot evict the metric samples.
const flightSpanCap = 4096

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 500 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	return c
}

// flightEntry is one line of a dump.
type flightEntry struct {
	Time      time.Time          `json:"time"`
	Kind      string             `json:"kind"` // "span" | "sample" | "trigger"
	Span      *SpanRecord        `json:"span,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Reason    string             `json:"reason,omitempty"`
	TriggerID string             `json:"trigger_id,omitempty"`
}

// FlightRecorder captures recent spans and metric samples and dumps
// them on demand. Arm one with Registry.ArmFlightRecorder.
type FlightRecorder struct {
	cfg FlightConfig
	reg *Registry

	mu       sync.Mutex
	spans    []flightEntry
	samples  []flightEntry
	lastVals map[string]float64 // counter totals at the previous sample
	lastDump time.Time
	stop     chan struct{}
	stopOnce sync.Once

	obsDumps      *Counter
	obsSuppressed *Counter
}

// ArmFlightRecorder creates, starts, and attaches a flight recorder to
// the registry: from now on every completed span is mirrored into the
// recorder ring and a sampler goroutine captures metric deltas at the
// configured cadence. Returns an error when the dump directory cannot
// be created. Arming replaces any previously armed recorder (the old
// one is closed).
func (r *Registry) ArmFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a dump directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	fr := &FlightRecorder{
		cfg:           cfg,
		reg:           r,
		stop:          make(chan struct{}),
		obsDumps:      r.Counter("arams_flight_dumps_total"),
		obsSuppressed: r.Counter("arams_flight_triggers_suppressed_total"),
	}
	if old := r.flight.Swap(fr); old != nil {
		old.Close()
	}
	go fr.sampleLoop()
	return fr, nil
}

// Close stops the sampler and detaches the recorder from its registry.
func (fr *FlightRecorder) Close() {
	fr.stopOnce.Do(func() {
		close(fr.stop)
		fr.reg.flight.CompareAndSwap(fr, nil)
	})
}

func (fr *FlightRecorder) sampleLoop() {
	tick := time.NewTicker(fr.cfg.SampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-fr.stop:
			return
		case <-tick.C:
			fr.sample()
		}
	}
}

// sample walks the registry once: gauges record their value, counters
// record the delta since the previous sample (the rate signal a
// post-mortem wants), and histograms contribute their _count delta.
func (fr *FlightRecorder) sample() {
	vals := make(map[string]float64)   // counter-like totals, for deltas
	gauges := make(map[string]float64) // instantaneous values
	fr.reg.each(func(m interface{}) {
		md := metaOf(m)
		key := md.name + md.labelString()
		switch v := m.(type) {
		case *Counter:
			vals[key] = v.Value()
		case *Gauge:
			gauges[key] = v.Value()
		case *Histogram:
			vals[key+"_count"] = float64(v.Count())
		}
	})

	now := time.Now()
	fr.mu.Lock()
	metrics := make(map[string]float64, len(vals)+len(gauges))
	for k, v := range gauges {
		metrics[k] = v
	}
	for k, v := range vals {
		metrics["Δ"+k] = v - fr.lastVals[k]
	}
	fr.lastVals = vals
	fr.samples = append(fr.samples, flightEntry{Time: now, Kind: "sample", Metrics: metrics})
	fr.trimLocked(now)
	fr.mu.Unlock()
}

// addSpan mirrors one completed span into the ring (called from
// Span.End via the registry's recorder pointer).
func (fr *FlightRecorder) addSpan(rec SpanRecord) {
	now := time.Now()
	fr.mu.Lock()
	fr.spans = append(fr.spans, flightEntry{Time: now, Kind: "span", Span: &rec})
	if len(fr.spans) > flightSpanCap {
		fr.spans = fr.spans[len(fr.spans)-flightSpanCap:]
	}
	fr.trimLocked(now)
	fr.mu.Unlock()
}

func (fr *FlightRecorder) trimLocked(now time.Time) {
	cutoff := now.Add(-fr.cfg.Window)
	trim := func(es []flightEntry) []flightEntry {
		i := 0
		for i < len(es) && es[i].Time.Before(cutoff) {
			i++
		}
		if i > 0 {
			es = append(es[:0], es[i:]...)
		}
		return es
	}
	fr.spans = trim(fr.spans)
	fr.samples = trim(fr.samples)
}

// Trigger dumps the ring to a new JSONL file in the configured
// directory and returns its path, minting a fresh trigger ID for the
// dump. A trigger inside the cooldown (or a dump that fails to write)
// returns "".
func (fr *FlightRecorder) Trigger(reason string) string {
	return fr.TriggerID(reason, newID().String())
}

// TriggerID is Trigger with a caller-supplied trigger ID — the
// correlation key for fleet-wide dumps: when a coordinator fault fans
// out over the fabric, every worker dumps with the coordinator's ID,
// so dumps from different processes for the same incident carry the
// same trigger ID in both their filenames and their trigger entries.
func (fr *FlightRecorder) TriggerID(reason, triggerID string) string {
	now := time.Now()
	fr.mu.Lock()
	if !fr.lastDump.IsZero() && now.Sub(fr.lastDump) < fr.cfg.Cooldown {
		fr.mu.Unlock()
		fr.obsSuppressed.Inc()
		return ""
	}
	fr.lastDump = now
	entries := make([]flightEntry, 0, len(fr.spans)+len(fr.samples)+1)
	entries = append(entries, fr.spans...)
	entries = append(entries, fr.samples...)
	fr.mu.Unlock()

	sortEntries(entries)
	entries = append(entries, flightEntry{Time: now, Kind: "trigger", Reason: reason, TriggerID: triggerID})

	ident := ""
	if fr.cfg.Identity != "" {
		ident = sanitizeReason(fr.cfg.Identity) + "-"
	}
	name := fmt.Sprintf("flight-%s%s-%s-%s.jsonl",
		ident, now.UTC().Format("20060102T150405.000"), sanitizeReason(reason), triggerID)
	path := filepath.Join(fr.cfg.Dir, name)
	if err := writeJSONL(path, entries); err != nil {
		return ""
	}
	fr.obsDumps.Inc()
	fr.reg.fireFlightHooks(reason, triggerID, path)
	return path
}

func sortEntries(es []flightEntry) {
	// Spans and samples are each already time-ordered; a single merge
	// keeps the dump chronological without a full sort.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Time.Before(es[j-1].Time); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "trigger"
	}
	s := b.String()
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}

func writeJSONL(path string, entries []flightEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// FlightTrigger fires the registry's armed flight recorder, if any,
// and returns the dump path ("" when unarmed, cooling down, or
// failed). The nil-check is one atomic load, so subsystems call this
// unconditionally on their fault paths.
func (r *Registry) FlightTrigger(reason string) string {
	fr := r.flight.Load()
	if fr == nil {
		return ""
	}
	return fr.Trigger(reason)
}

// FlightTriggerID fires the registry's armed flight recorder with a
// caller-supplied trigger ID (see FlightRecorder.TriggerID). Used on
// the receiving end of a fleet-wide fan-out, where the trigger ID was
// minted by the coordinator.
func (r *Registry) FlightTriggerID(reason, triggerID string) string {
	fr := r.flight.Load()
	if fr == nil {
		return ""
	}
	return fr.TriggerID(reason, triggerID)
}

// OnFlightDump registers a callback fired after every flight dump this
// registry's recorder writes (re-arming the recorder keeps hooks).
// Each invocation runs on its own goroutine, so hooks can do blocking
// work — fan a trigger out over the network — without stalling the
// fault path that fired the dump, which may hold subsystem locks.
// The returned function unregisters the hook.
func (r *Registry) OnFlightDump(fn func(reason, triggerID, path string)) func() {
	r.flightHookMu.Lock()
	defer r.flightHookMu.Unlock()
	if r.flightHooks == nil {
		r.flightHooks = make(map[int]func(reason, triggerID, path string))
	}
	id := r.flightHookN
	r.flightHookN++
	r.flightHooks[id] = fn
	return func() {
		r.flightHookMu.Lock()
		delete(r.flightHooks, id)
		r.flightHookMu.Unlock()
	}
}

func (r *Registry) fireFlightHooks(reason, triggerID, path string) {
	r.flightHookMu.Lock()
	for _, fn := range r.flightHooks {
		go fn(reason, triggerID, path)
	}
	r.flightHookMu.Unlock()
}
