package tenant

import (
	"errors"
	"time"

	"arams/internal/imgproc"
	"arams/internal/pipeline"
)

// Append admits one frame for a tenant. Unknown tenants are admitted
// on first contact; hibernated tenants are woken asynchronously —
// Append itself never waits on a restore, it just queues the frame and
// the tenant's drain delivers it once the engine is back.
//
// Backpressure is strictly per-tenant: when the tenant's ingress queue
// is at QueueQuota, Append blocks until the tenant's drain takes frames
// off it. A producer can therefore only ever be slowed by its own
// tenant's backlog, never by a neighbor's reconcile stall.
func (r *Registry) Append(id string, im *imgproc.Image, tag int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	en := r.ents[id]
	if en == nil {
		if r.closed {
			return errors.New("tenant: registry closed")
		}
		if err := ValidateID(id); err != nil {
			return err
		}
		en = r.admitLocked(id)
	}
	for len(en.q) >= r.cfg.QueueQuota {
		if r.closed {
			return errors.New("tenant: registry closed")
		}
		if en.restoreErr != nil {
			return en.restoreErr
		}
		r.cond.Wait()
	}
	if r.closed {
		return errors.New("tenant: registry closed")
	}
	if en.restoreErr != nil {
		return en.restoreErr
	}
	en.q = append(en.q, qframe{im: im, tag: tag})
	en.lastTouch = time.Now()
	switch en.st {
	case Resident:
		r.startDrainLocked(en)
	case Hibernated:
		r.startRestoreLocked(en)
	}
	// A restoring or hibernating tenant's frames wait for the transition
	// to end: a restore starts the drain, a hibernation restores first.
	return nil
}

// drainBatch caps how many queued frames one IngestBatch call takes.
const drainBatch = 64

// startDrainLocked starts the tenant's drain: one goroutine that feeds
// the ingress queue to the engine in batches of up to drainBatch frames
// until the queue is empty. A tenant has at most one drain — inflight
// is non-zero exactly while it runs — so its stream stays FIFO, which
// round-robin shard routing depends on. A wedged engine therefore backs
// up only its own tenant's queue (and, through QueueQuota, its own
// producers). Caller holds the registry mutex.
func (r *Registry) startDrainLocked(en *entry) {
	if en.st != Resident || en.inflight > 0 || len(en.q) == 0 {
		return
	}
	ims, tags := r.takeLocked(en, make([]*imgproc.Image, 0, drainBatch), make([]int, 0, drainBatch))
	go r.drain(en, en.mon, ims, tags)
}

// takeLocked moves up to drainBatch frames off the head of the
// tenant's queue into ims and tags (reusing their storage) and counts
// them in flight. Queue producers blocked on the quota may proceed.
func (r *Registry) takeLocked(en *entry, ims []*imgproc.Image, tags []int) ([]*imgproc.Image, []int) {
	n := min(len(en.q), drainBatch)
	ims, tags = ims[:0], tags[:0]
	for _, f := range en.q[:n] {
		ims = append(ims, f.im)
		tags = append(tags, f.tag)
	}
	clear(en.q[:n])
	en.q = en.q[n:]
	en.inflight = n
	r.cond.Broadcast()
	return ims, tags
}

// drain is the tenant's drain goroutine. Its first batch was taken by
// startDrainLocked; m stays the tenant's monitor throughout, because a
// tenant with frames in flight is never hibernated.
func (r *Registry) drain(en *entry, m *pipeline.Monitor, ims []*imgproc.Image, tags []int) {
	for {
		m.IngestBatch(ims, tags)
		r.mu.Lock()
		en.inflight = 0
		if len(en.q) == 0 {
			// Drained: Drain and Hibernate waiters may proceed, and the
			// tenant may now be the eviction victim the cap is waiting for.
			r.cond.Broadcast()
			r.maybeEvictLocked()
			r.mu.Unlock()
			return
		}
		ims, tags = r.takeLocked(en, ims, tags)
		r.mu.Unlock()
	}
}
