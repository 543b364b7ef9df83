// Package tenant multiplexes many independent sketch streams through
// one process: a registry owns one pipeline.Monitor (and therefore one
// streaming engine) per tenant ID, all sharing the process-wide mat
// worker pool and obs registry, with an LRU/idle-deadline hibernation
// policy that checkpoints idle tenants to disk through the ckpt codec
// (a monitor frame, version 5: the window at float32) and transparently
// restores them on their next frame.
//
// The economics come straight from Frequent Directions: a tenant's
// entire stream state — per-shard sketches, sampler RNG positions,
// sliding window, audit ledger — is a small mergeable summary, so an
// idle beamline costs a file, not RAM or goroutines. Checkpoint resume
// is bit-exact, so a hibernate→restore cycle is invisible to sketch
// bytes, certificates, and audit journals; the only observable trace is
// the tenant_evict/tenant_restore pair in the service journal.
//
// Registry state machine (per tenant):
//
//	resident ──(idle deadline / residency pressure)──► hibernating ──► hibernated
//	hibernated ──(next frame or pinned access)──► restoring ──► resident
//
// The transitional states are ownership markers: exactly one goroutine
// performs the heavy work (checkpoint save or load) outside the
// registry lock while everyone else waits on the condition variable, so
// no lock is ever held across linear algebra or disk IO and two
// concurrent restores can never deadlock hibernating each other's
// victims. Pins (acquired by Monitor and Certificate) block hibernation
// while a tenant's state is externally visible, and so does a batch in
// flight.
//
// A tenant's bounded ingress queue is its only ingest queue (admission
// control — a producer blocks on its own tenant's quota, never on
// another tenant's). A resident tenant with queued frames runs one
// drain goroutine that feeds them to its engine in batches through
// IngestBatch, so one tenant's slow reconcile backs its own queue up
// and costs everyone else nothing. See ingest.go.
package tenant

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/obs"
	"arams/internal/pipeline"
)

// ErrBusy is what Hibernate wraps when the tenant is pinned by a reader
// or has frames queued or in flight: nothing failed, and a later call
// may succeed.
var ErrBusy = errors.New("tenant is pinned or has backlog; not hibernated")

// registryObs is the registry-level observability surface (process-wide;
// the per-tenant hot-path series carry tenant labels and live on each
// tenant's engine). The series register in Open, not at package init,
// so merely linking this package — every lclsmon build does — leaves a
// single-tenant run's exposition byte-identical to historical builds.
type registryObs struct {
	tenants      *obs.Gauge
	resident     *obs.Gauge
	admissions   *obs.Counter
	hibernations *obs.Counter
	restores     *obs.Counter
}

func newRegistryObs() registryObs {
	return registryObs{
		tenants:      obs.Default().Gauge("arams_tenant_count"),
		resident:     obs.Default().Gauge("arams_tenant_resident"),
		admissions:   obs.Default().Counter("arams_tenant_admissions_total"),
		hibernations: obs.Default().Counter("arams_tenant_hibernations_total"),
		restores:     obs.Default().Counter("arams_tenant_restores_total"),
	}
}

// State is a tenant's position in the registry lifecycle.
type State int

const (
	// Hibernated: the tenant's whole stream state lives in its
	// checkpoint file; no memory, no goroutines.
	Hibernated State = iota
	// Restoring: a goroutine is loading the checkpoint; frames queue.
	Restoring
	// Resident: a live monitor/engine is serving the tenant.
	Resident
	// Idle: resident, but past the idle deadline — an eviction
	// candidate the janitor will hibernate (reporting-only state,
	// derived from the last-activity clock).
	Idle
	// Hibernating: a goroutine is checkpointing the tenant out.
	Hibernating
)

func (s State) String() string {
	switch s {
	case Hibernated:
		return "hibernated"
	case Restoring:
		return "restoring"
	case Resident:
		return "resident"
	case Idle:
		return "idle"
	case Hibernating:
		return "hibernating"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config parameterizes the registry.
type Config struct {
	// Dir is the hibernation directory: tenant <id> checkpoints to
	// Dir/tenant-<id>.ckpt. Required; Open scans it for hibernated
	// tenants left by a previous process, so a crash or restart loses
	// nothing that was checkpointed.
	Dir string
	// Pipeline is the per-tenant monitor configuration template. The
	// registry sets its Tenant field per tenant (metric labeling) and
	// its Audit field from NewAuditor; the caller's Audit must be nil —
	// a shared auditor would entangle tenants' checkpointable state.
	Pipeline pipeline.Config
	// Window is each tenant's sliding-window size (monitor default
	// when 0).
	Window int
	// MaxResident caps how many tenants hold live engines at once
	// (0 = unlimited). Over the cap the registry hibernates the
	// least-recently-active unpinned tenant with no backlog; when every
	// resident tenant is mid-burst the cap is allowed to overflow
	// rather than thrash a busy tenant to disk.
	MaxResident int
	// IdleAfter is the idle deadline: a resident tenant with no frame
	// activity for this long is hibernated by the next sweep (0 = only
	// residency pressure evicts).
	IdleAfter time.Duration
	// JanitorEvery runs a background sweep at this period (0 = no
	// janitor; callers drive Sweep explicitly, as tests do).
	JanitorEvery time.Duration
	// QueueQuota bounds each tenant's ingress queue (default 256).
	// A producer whose tenant is at quota blocks — per-tenant
	// backpressure, never drops, never another tenant's problem.
	QueueQuota int
	// NewAuditor, when set, builds each tenant's private quality
	// auditor at first admission. Per-tenant auditors keep drift
	// detector and journal state inside the tenant's own checkpoint.
	NewAuditor func(id string) *audit.Auditor
	// Journal receives the registry's tenant_admission, tenant_evict,
	// and tenant_restore events (audit.Default() when nil).
	Journal *audit.Journal
}

func (c Config) withDefaults() Config {
	if c.QueueQuota <= 0 {
		c.QueueQuota = 256
	}
	if c.Journal == nil {
		c.Journal = audit.Default()
	}
	return c
}

// qframe is one frame waiting in a tenant's ingress queue.
type qframe struct {
	im  *imgproc.Image
	tag int
}

// entry is one tenant's registry slot. Every field is guarded by the
// registry mutex; the monitor itself is only dereferenced while the
// entry is pinned or inside a transition the caller owns.
type entry struct {
	id  string
	st  State // Resident, Hibernating, Hibernated, Restoring (never Idle)
	mon *pipeline.Monitor

	q        []qframe // ingress queue, FIFO
	inflight int      // frames the drain took off q and has not yet sketched

	pins      int       // external holds blocking hibernation
	lastTouch time.Time // last frame or pinned access
	ingests   int       // stream count at last hibernate (display while off)

	lastCert audit.Certificate // cut at hibernate / Certificate()
	hasCert  bool

	restoreErr error // sticky: the checkpoint failed to load
}

// Registry owns the tenant table. All methods are safe for concurrent
// use; one mutex guards every entry (transitions park heavy work
// outside it under Hibernating/Restoring ownership markers).
type Registry struct {
	cfg Config
	ro  registryObs

	mu       sync.Mutex
	cond     *sync.Cond
	ents     map[string]*entry
	ring     []*entry // admission order
	closed   bool
	evicting bool // a background evictOverflow is running

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// Open creates a registry over cfg.Dir, admitting (as hibernated) every
// tenant checkpoint a previous process left there, and, with
// JanitorEvery set, starts the idle janitor.
func Open(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("tenant: Config.Dir is required")
	}
	if cfg.Pipeline.Audit != nil {
		return nil, errors.New("tenant: Config.Pipeline.Audit must be nil; use NewAuditor for per-tenant auditors")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating %s: %w", cfg.Dir, err)
	}
	r := &Registry{
		cfg:  cfg,
		ro:   newRegistryObs(),
		ents: make(map[string]*entry),
	}
	r.cond = sync.NewCond(&r.mu)

	// Crash recovery: every tenant-<id>.ckpt in the directory is a
	// hibernated tenant; it restores lazily on its next frame.
	names, err := filepath.Glob(filepath.Join(cfg.Dir, "tenant-*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("tenant: scanning %s: %w", cfg.Dir, err)
	}
	for _, p := range names {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "tenant-"), ".ckpt")
		if err := ValidateID(id); err != nil {
			continue // not one of ours
		}
		r.admitLocked(id)
	}

	if cfg.JanitorEvery > 0 {
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor()
	}
	return r, nil
}

// ValidateID reports whether id is usable as a tenant identifier: it
// must be non-empty, at most 64 bytes, and drawn from [A-Za-z0-9._-]
// (it becomes a checkpoint filename and a Prometheus label value).
func ValidateID(id string) error {
	if id == "" {
		return errors.New("tenant: empty tenant id")
	}
	if len(id) > 64 {
		return fmt.Errorf("tenant: id %q exceeds 64 bytes", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant: id %q contains %q; allowed: [A-Za-z0-9._-]", id, c)
		}
	}
	return nil
}

func (r *Registry) ckptPath(id string) string {
	return filepath.Join(r.cfg.Dir, "tenant-"+id+".ckpt")
}

// tenantCfg builds one tenant's monitor configuration: the shared
// template with tenant-scoped metric labels and a private auditor.
func (r *Registry) tenantCfg(id string) pipeline.Config {
	cfg := r.cfg.Pipeline
	cfg.Tenant = id
	if r.cfg.NewAuditor != nil {
		cfg.Audit = r.cfg.NewAuditor(id)
	}
	return cfg
}

// admitLocked inserts a tenant slot; the caller validated the ID.
// New tenants start Hibernated: the first frame (or pinned access)
// "restores" them, which for an absent checkpoint file means creating
// a fresh monitor — one code path covers both births and revivals.
func (r *Registry) admitLocked(id string) *entry {
	en := &entry{id: id, st: Hibernated, lastTouch: time.Now()}
	r.ents[id] = en
	r.ring = append(r.ring, en)
	r.ro.tenants.SetInt(len(r.ents))
	r.ro.admissions.Inc()
	r.cfg.Journal.Record(audit.KindTenantAdmission,
		"tenant admitted: "+id,
		audit.A("tenants", float64(len(r.ents))))
	return en
}

// residentCountLocked counts live engines (Resident + Hibernating:
// a tenant mid-checkpoint still holds its memory).
func (r *Registry) residentCountLocked() int {
	n := 0
	for _, en := range r.ring {
		if en.st == Resident || en.st == Hibernating {
			n++
		}
	}
	return n
}

// Tenants returns the current tenant set, sorted by admission order.
func (r *Registry) Tenants() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.ring))
	for _, en := range r.ring {
		out = append(out, r.infoLocked(en))
	}
	return out
}

// infoLocked snapshots one tenant's reportable state.
func (r *Registry) infoLocked(en *entry) Info {
	inf := Info{
		ID:         en.id,
		State:      en.st,
		QueueDepth: len(en.q) + en.inflight,
		Pins:       en.pins,
		Ingests:    en.ingests,
		IdleFor:    time.Since(en.lastTouch),
	}
	if en.st == Resident {
		inf.Ingests = en.mon.Ingested()
		if r.cfg.IdleAfter > 0 && inf.IdleFor >= r.cfg.IdleAfter && r.evictableLocked(en) {
			inf.State = Idle
		}
	}
	if en.hasCert {
		c := en.lastCert
		inf.Certificate = &c
	}
	return inf
}

// acquire pins a tenant resident, restoring it first if hibernated.
// Callers must release() the returned entry when done with the monitor.
func (r *Registry) acquire(id string) (*entry, *pipeline.Monitor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	en := r.ents[id]
	if en == nil {
		return nil, nil, fmt.Errorf("tenant: unknown tenant %q", id)
	}
	for {
		if r.closed {
			return nil, nil, errors.New("tenant: registry closed")
		}
		switch en.st {
		case Resident:
			en.pins++
			en.lastTouch = time.Now()
			return en, en.mon, nil
		case Hibernated:
			if en.restoreErr != nil {
				return nil, nil, en.restoreErr
			}
			r.startRestoreLocked(en)
		}
		r.cond.Wait()
	}
}

func (r *Registry) release(en *entry) {
	r.mu.Lock()
	r.unpinLocked(en)
	r.mu.Unlock()
}

// unpinLocked drops one pin; the tenant may now be the eviction victim
// the residency cap is waiting for.
func (r *Registry) unpinLocked(en *entry) {
	en.pins--
	r.cond.Broadcast()
	r.maybeEvictLocked()
}

// Monitor pins a tenant resident and returns its live monitor plus the
// release closure that unpins it. While pinned the tenant cannot be
// hibernated, so the monitor is safe for snapshots, state capture, and
// certificate reads until release is called.
func (r *Registry) Monitor(id string) (*pipeline.Monitor, func(), error) {
	en, m, err := r.acquire(id)
	if err != nil {
		return nil, nil, err
	}
	var once sync.Once
	return m, func() { once.Do(func() { r.release(en) }) }, nil
}

// Certificate returns the tenant's current error-bound certificate.
// For a resident tenant it is cut live from the engine (the composition
// of its shards' certificates, which covers every shard's stream); for
// a hibernated one the certificate composed from its checkpoint at
// hibernation is served without waking the tenant — reading a bound
// must not cost a restore. Both are the same statement about the same
// shards, so hibernating does not change the value.
func (r *Registry) Certificate(id string) (audit.Certificate, error) {
	r.mu.Lock()
	en := r.ents[id]
	if en == nil {
		r.mu.Unlock()
		return audit.Certificate{}, fmt.Errorf("tenant: unknown tenant %q", id)
	}
	if en.st == Hibernated && en.hasCert {
		c := en.lastCert
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()

	en, m, err := r.acquire(id)
	if err != nil {
		return audit.Certificate{}, err
	}
	cert := m.Engine().Certificate()
	r.mu.Lock()
	en.lastCert, en.hasCert = cert, true
	r.unpinLocked(en)
	r.mu.Unlock()
	return cert, nil
}

// startRestoreLocked claims a hibernated tenant for restoration and
// launches the loader goroutine. Caller holds the registry mutex.
func (r *Registry) startRestoreLocked(en *entry) {
	en.st = Restoring
	go r.restore(en)
}

// restore loads the tenant's checkpoint (or creates a fresh monitor
// when none exists — a brand-new tenant) outside the registry lock.
func (r *Registry) restore(en *entry) {
	path := r.ckptPath(en.id)
	var m *pipeline.Monitor
	state, lerr := ckpt.Load(path)
	var err error
	switch {
	case lerr == nil:
		ms, ok := state.(*pipeline.MonitorState)
		if !ok {
			err = fmt.Errorf("tenant: %s holds %T, not a monitor state", path, state)
			break
		}
		m, err = pipeline.NewMonitorFromState(r.tenantCfg(en.id), ms)
		if err == nil {
			r.ro.restores.Inc()
			r.cfg.Journal.Record(audit.KindTenantRestore,
				"tenant restored from hibernation: "+en.id,
				audit.A("ingests", float64(ms.Ingests)),
				audit.A("window_frames", float64(len(ms.Frames))))
		}
	case errors.Is(lerr, os.ErrNotExist):
		m = pipeline.NewMonitor(r.tenantCfg(en.id), r.cfg.Window)
	default:
		err = lerr
	}

	r.mu.Lock()
	if err != nil {
		// Sticky failure: the tenant stays hibernated and every queued
		// or future frame is refused until the operator repairs the
		// checkpoint — silently restarting the stream from scratch
		// would certify bounds over the wrong stream.
		en.st = Hibernated
		en.restoreErr = err
		en.q = nil
	} else {
		en.st = Resident
		en.mon = m
		en.restoreErr = nil
		en.lastTouch = time.Now()
		r.startDrainLocked(en)
		r.maybeEvictLocked()
	}
	r.ro.resident.SetInt(r.residentCountLocked())
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Hibernate checkpoints a tenant out now, regardless of idle state. It
// waits for the tenant's backlog (queued and in-flight frames) to drain
// so the checkpoint covers every admitted frame. A tenant pinned, or
// busy again once drained, is left resident, and the error wraps
// ErrBusy.
func (r *Registry) Hibernate(id string) error {
	if err := r.Drain(id); err != nil {
		return err
	}
	r.mu.Lock()
	en := r.ents[id]
	for en != nil && (en.st == Restoring || en.st == Hibernating) {
		r.cond.Wait()
	}
	if en == nil || en.st != Resident || en.pins > 0 || len(en.q) > 0 || en.inflight > 0 {
		// Hibernated already, or busy again — nothing to do / retry later.
		st := Hibernated
		if en != nil {
			st = en.st
		}
		r.mu.Unlock()
		if st == Resident {
			return fmt.Errorf("tenant: %s: %w", id, ErrBusy)
		}
		return nil
	}
	en.st = Hibernating
	r.mu.Unlock()
	return r.hibernate(en, "explicit")
}

// hibernate checkpoints one tenant out; the caller has already set
// st == Hibernating (the ownership marker) on a tenant with nothing
// queued or in flight and dropped the lock. Frames appended meanwhile
// wait in the queue: the tenant drains them once it is resident again,
// restoring first when the checkpoint was written. The reason string
// lands in the journal event message.
func (r *Registry) hibernate(en *entry, reason string) error {
	m := en.mon
	s, serr := m.Suspend()
	var err error
	if s == nil {
		err = fmt.Errorf("tenant: suspending %s: %w", en.id, serr)
	} else {
		err = ckpt.Save(r.ckptPath(en.id), s)
	}
	if err != nil {
		// The state (when we have one) still holds the whole stream — it
		// owns the suspended window's vectors and the shards' sketch
		// buffers, which the failed Save only read — so resurrect the
		// tenant in memory rather than lose it. The new monitor takes
		// that storage over, as a restore from disk takes the decoder's.
		var m2 *pipeline.Monitor
		var rerr error
		if s != nil {
			m2, rerr = pipeline.NewMonitorFromState(r.tenantCfg(en.id), s)
		}
		r.mu.Lock()
		if m2 != nil && rerr == nil {
			en.mon, en.st = m2, Resident
			r.startDrainLocked(en)
		} else {
			en.mon, en.st = nil, Hibernated
			en.restoreErr = err
		}
		r.ro.resident.SetInt(r.residentCountLocked())
		r.cond.Broadcast()
		r.mu.Unlock()
		return err
	}

	// The cached certificate is cut from the suspended state itself,
	// whose ledgers cover every frame sketched before the hibernation
	// began. /tenantz reports this bound for sleeping tenants without
	// waking them.
	cert := s.Certificate()
	ingests := s.Ingests
	r.ro.hibernations.Inc()
	r.cfg.Journal.Record(audit.KindTenantEvict,
		"tenant hibernated ("+reason+"): "+en.id,
		audit.A("ingests", float64(ingests)),
		audit.A("window_frames", float64(len(s.Frames))),
		audit.A("cov_bound", cert.CovBound()))
	// The checkpoint is on disk and everything the registry keeps has
	// been cut from the state: hand its window and its sketch buffers
	// back to the vector pool, where the next restore's decoder (this
	// tenant's or another's) and the next ingest draw from them.
	s.Release()
	r.mu.Lock()
	en.mon = nil
	en.st = Hibernated
	en.ingests = ingests
	en.lastCert, en.hasCert = cert, true
	if len(en.q) > 0 {
		r.startRestoreLocked(en)
	}
	r.ro.resident.SetInt(r.residentCountLocked())
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// evictable reports whether a resident tenant can be hibernated right
// now: unpinned and with no admitted-but-unsketched frames.
func (r *Registry) evictableLocked(en *entry) bool {
	return en.st == Resident && en.pins == 0 && len(en.q) == 0 && en.inflight == 0
}

// maybeEvictLocked spawns one background evictOverflow when the
// residency cap is exceeded and some tenant is actually evictable. It
// runs wherever either can change: when a drain empties its queue, when
// a pin is released and when a restore completes. That is what makes
// MaxResident bite under continuous load: the moment a tenant's backlog
// drains, the overflow worker hibernates it, without any drain blocking
// on a checkpoint write. The evicting flag keeps it to one worker; the
// caller holds the registry mutex.
func (r *Registry) maybeEvictLocked() {
	if r.cfg.MaxResident <= 0 || r.evicting || r.closed {
		return
	}
	if r.residentCountLocked() <= r.cfg.MaxResident {
		return
	}
	any := false
	for _, en := range r.ring {
		if r.evictableLocked(en) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	r.evicting = true
	go r.evictOverflow(true)
}

// evictOverflow enforces MaxResident: while too many tenants hold live
// engines, the least-recently-active evictable one is hibernated. When
// every resident tenant is pinned or mid-burst, the cap overflows
// rather than thrashing a busy tenant to disk.
//
// Each call tries each tenant at most once: a tenant whose hibernation
// write failed comes back resident with its old activity clock, and
// picking it again would spin for as long as the disk keeps failing.
//
// bg marks the worker maybeEvictLocked spawned: it clears the evicting
// flag in the same critical section that finds nothing left to evict,
// so a trigger that found the flag set is never lost.
func (r *Registry) evictOverflow(bg bool) {
	if r.cfg.MaxResident <= 0 {
		return
	}
	tried := make(map[*entry]bool)
	for {
		r.mu.Lock()
		var victim *entry
		if r.residentCountLocked() > r.cfg.MaxResident {
			for _, en := range r.ring {
				if tried[en] || !r.evictableLocked(en) {
					continue
				}
				if victim == nil || en.lastTouch.Before(victim.lastTouch) {
					victim = en
				}
			}
		}
		if victim == nil {
			if bg {
				r.evicting = false
			}
			r.mu.Unlock()
			return
		}
		victim.st = Hibernating
		tried[victim] = true
		r.mu.Unlock()
		r.hibernate(victim, "residency pressure")
	}
}

// Sweep hibernates every resident tenant idle past the deadline (and
// re-checks the residency cap). Returns how many tenants it put to
// sleep; a tenant whose hibernation fails stays resident and is not
// retried until the next sweep. The janitor calls it on a timer; tests
// call it directly.
func (r *Registry) Sweep(now time.Time) int {
	if r.cfg.IdleAfter <= 0 {
		r.evictOverflow(false)
		return 0
	}
	n := 0
	tried := make(map[*entry]bool)
	for {
		r.mu.Lock()
		var victim *entry
		for _, en := range r.ring {
			if !tried[en] && r.evictableLocked(en) && now.Sub(en.lastTouch) >= r.cfg.IdleAfter {
				victim = en
				break
			}
		}
		if victim == nil {
			r.mu.Unlock()
			break
		}
		victim.st = Hibernating
		tried[victim] = true
		r.mu.Unlock()
		if r.hibernate(victim, "idle deadline") == nil {
			n++
		}
	}
	r.evictOverflow(false)
	return n
}

func (r *Registry) janitor() {
	defer close(r.janitorDone)
	t := time.NewTicker(r.cfg.JanitorEvery)
	defer t.Stop()
	for {
		select {
		case <-r.janitorStop:
			return
		case now := <-t.C:
			r.Sweep(now)
		}
	}
}

// Drain blocks until every frame appended for the tenant before the
// call has been sketched (nothing queued, nothing in flight).
func (r *Registry) Drain(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	en := r.ents[id]
	if en == nil {
		return fmt.Errorf("tenant: unknown tenant %q", id)
	}
	for len(en.q) > 0 || en.inflight > 0 || en.st == Restoring || en.st == Hibernating {
		if en.restoreErr != nil {
			return en.restoreErr
		}
		r.cond.Wait()
	}
	return nil
}

// DrainAll drains every known tenant.
func (r *Registry) DrainAll() error {
	r.mu.Lock()
	ids := make([]string, 0, len(r.ring))
	for _, en := range r.ring {
		ids = append(ids, en.id)
	}
	r.mu.Unlock()
	var first error
	for _, id := range ids {
		if err := r.Drain(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close waits for every ingress queue to drain, hibernates every
// resident tenant (so the whole registry state survives on disk), and
// stops the janitor. Append fails after Close. It tries each
// tenant once: one whose hibernation fails stays resident, and Close
// returns the first such error.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()

	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}

	// Hibernate whatever is resident once its queue has drained, and
	// wait out every drain and any transition another goroutine
	// (background evictor, late restore) still owns — Close must not
	// return while a hibernation write is in flight, or a successor
	// registry could scan a half-populated directory. A resident tenant
	// with queued frames always has a drain in flight, and a hibernated
	// one with a working checkpoint is restoring, so this loop ends once
	// every admitted frame is sketched; frames behind a failed restore
	// were refused through restoreErr.
	var first error
	tried := make(map[*entry]bool)
	for {
		r.mu.Lock()
		var victim *entry
		inFlight := false
		for _, en := range r.ring {
			if en.st == Hibernating || en.st == Restoring || en.inflight > 0 {
				inFlight = true
			}
			if victim == nil && !tried[en] && r.evictableLocked(en) {
				victim = en
			}
		}
		if victim == nil {
			if !inFlight {
				r.mu.Unlock()
				break
			}
			r.cond.Wait()
			r.mu.Unlock()
			continue
		}
		victim.st = Hibernating
		tried[victim] = true
		r.mu.Unlock()
		if err := r.hibernate(victim, "shutdown"); err != nil && first == nil {
			first = err
		}
	}
	return first
}
