package tenant

import (
	"errors"
	"time"

	"arams/internal/imgproc"
)

// Append admits one frame for a tenant. Unknown tenants are admitted
// on first contact; hibernated tenants are
// woken asynchronously — Append itself never waits on a restore, it
// just queues the frame and the dispatcher delivers it once the engine
// is back.
//
// Backpressure is strictly per-tenant: when the tenant's ingress queue
// is at QueueQuota, Append blocks until the dispatcher drains it. A
// producer can therefore only ever be slowed by its own tenant's
// backlog, never by a neighbor's reconcile stall.
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
		en = r.admitLocked(id, Hibernated)
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
	// Wake the dispatcher (and anyone draining this tenant).
	r.cond.Broadcast()
	return nil
}

// quantum is each tenant's per-pass frame allowance in the fair-share
// dispatcher: the engine's batch size.
const quantum = 64

// dispatch is the fair-share pump: one goroutine moving frames from
// every tenant's ingress queue into its engine with a
// deficit-round-robin pass.
//
// Each pass walks the admission ring once. A tenant with queued frames
// earns quantum deficit (capped at twice that, so an idle tenant cannot
// bank unbounded credit) and hands frames to its engine
// with TryEnqueue — a non-blocking offer that fails when the engine's
// own bounded queue is full. On failure the tenant keeps its place and
// its deficit; the pass simply moves on. The dispatcher therefore
// never blocks on any single engine: a tenant mid-reconcile backs up
// its own ingress queue (eventually blocking only its own producers
// via QueueQuota) while every other tenant keeps streaming.
//
// Hibernated tenants with queued frames get a restore kicked off (the
// restore runs in its own goroutine; the frames wait in the ingress
// queue and flow on a later pass). When every queue is empty the
// dispatcher sleeps on the registry condvar; when work exists but all
// target engines are full it naps briefly instead of spinning.
func (r *Registry) dispatch() {
	defer close(r.dispatcherDone)
	const fullNap = 200 * time.Microsecond
	for {
		r.mu.Lock()
		// Exit once closed and every queue we can still serve is empty
		// (queues stuck behind a failed restore cannot drain; their
		// frames are surfaced via restoreErr, not silently sketched).
		if r.closed && !r.hasDrainableLocked() {
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}

		moved, blocked := r.passLocked()
		r.maybeEvictLocked()
		if moved > 0 {
			// Progress: producers blocked on quota and Drain waiters
			// may be runnable again.
			r.cond.Broadcast()
			r.mu.Unlock()
			continue
		}
		if blocked {
			// Work exists but every target engine is full or restoring;
			// don't hold the lock while napping.
			r.mu.Unlock()
			time.Sleep(fullNap)
			continue
		}
		if r.closed {
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		r.cond.Wait()
		r.mu.Unlock()
	}
}

// hasDrainableLocked reports whether any tenant still has queued
// frames that a (working) restore or engine could absorb.
func (r *Registry) hasDrainableLocked() bool {
	for _, en := range r.ring {
		if len(en.q) > 0 && en.restoreErr == nil {
			return true
		}
	}
	return false
}

// passLocked runs one deficit-round-robin pass over the ring, moving
// as many frames as deficits and engine queues allow. It returns the
// number of frames moved and whether undeliverable work remains
// (queued frames whose engine was full or whose restore is pending).
// Caller holds the registry mutex; the lock is retained throughout —
// every step (TryEnqueue is a non-blocking channel offer) is cheap.
func (r *Registry) passLocked() (moved int, blocked bool) {
	n := len(r.ring)
	for i := 0; i < n; i++ {
		en := r.ring[(r.next+i)%n]
		if len(en.q) == 0 {
			en.deficit = 0
			continue
		}
		if en.restoreErr != nil {
			continue
		}
		switch en.st {
		case Hibernated:
			r.startRestoreLocked(en)
			blocked = true
			continue
		case Restoring, Hibernating:
			blocked = true
			continue
		}
		// Resident: top up the allowance and deliver.
		en.deficit += quantum
		if en.deficit > 2*quantum {
			en.deficit = 2 * quantum
		}
		for len(en.q) > 0 && en.deficit > 0 {
			f := en.q[0]
			if !en.mon.Engine().TryEnqueue(f.im, f.tag) {
				blocked = true
				break
			}
			en.q[0] = qframe{}
			en.q = en.q[1:]
			en.deficit--
			moved++
		}
		if len(en.q) == 0 && cap(en.q) > 4*r.cfg.QueueQuota {
			en.q = nil // return an over-grown backing array
		}
	}
	if n > 0 {
		r.next = (r.next + 1) % n
	}
	return moved, blocked
}
