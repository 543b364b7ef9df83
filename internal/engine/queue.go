package engine

import (
	"time"

	"arams/internal/imgproc"
)

// Async ingest: Enqueue hands frames to a single pump goroutine through
// a bounded channel. A full channel blocks the producer — backpressure,
// never drops — and the pump coalesces whatever is queued (up to
// batchSize) into one IngestBatch call, so a bursty producer pays the
// per-batch lock cost once per burst instead of once per frame. One
// pump keeps the stream FIFO, which round-robin routing determinism
// depends on.

// batchSize caps how many queued frames the pump folds into one
// IngestBatch call.
const batchSize = 64

// qitem is one queued frame, or a drain marker when ack is non-nil.
// at is the enqueue time; the pump reports the batch's oldest one as a
// queue_wait span inside the batch's trace.
type qitem struct {
	im  *imgproc.Image
	tag int
	at  time.Time
	ack chan struct{}
}

// Start launches the pump goroutine. It is idempotent; Enqueue and
// Drain call it implicitly.
func (e *Engine) Start() {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	e.startLocked()
}

func (e *Engine) startLocked() {
	if e.queue != nil {
		return
	}
	e.queue = make(chan qitem, e.cfg.IngestBuffer)
	e.pumpDone = make(chan struct{})
	go e.pump(e.queue, e.pumpDone)
}

// Enqueue submits one frame to the async ingest queue, blocking while
// the queue is full. Frames are ingested in submission order. Callers
// that need the frame's effect visible (e.g. before a checkpoint) call
// Drain first.
func (e *Engine) Enqueue(im *imgproc.Image, tag int) {
	e.queueMu.Lock()
	e.startLocked()
	q := e.queue
	e.queueMu.Unlock()
	// The pump owns the queue-depth gauge: sampling it here after the
	// send raced the pump's own updates and could leave a stale nonzero
	// reading as the last write.
	q <- qitem{im: im, tag: tag, at: time.Now()}
}

// TryEnqueue is Enqueue without the blocking: it submits the frame if
// the queue has room and reports false otherwise, leaving the frame
// with the caller. The multi-tenant fair-share pump uses it as the
// handoff into a tenant's engine — a full engine queue must push back
// into the tenant's own ingress queue, never stall the shared
// dispatcher on one slow tenant.
func (e *Engine) TryEnqueue(im *imgproc.Image, tag int) bool {
	e.queueMu.Lock()
	e.startLocked()
	q := e.queue
	e.queueMu.Unlock()
	select {
	case q <- qitem{im: im, tag: tag, at: time.Now()}:
		return true
	default:
		return false
	}
}

// QueueDepth reports how many frames currently sit in the async ingest
// queue (0 when the pump was never started).
func (e *Engine) QueueDepth() int {
	e.queueMu.Lock()
	q := e.queue
	e.queueMu.Unlock()
	if q == nil {
		return 0
	}
	return len(q)
}

// Drain blocks until every frame enqueued before the call has been
// ingested. It is a no-op when the pump was never started.
func (e *Engine) Drain() {
	e.queueMu.Lock()
	q := e.queue
	e.queueMu.Unlock()
	if q == nil {
		return
	}
	ack := make(chan struct{})
	q <- qitem{ack: ack}
	<-ack
}

// Stop drains the queue, ingests everything, and terminates the pump.
// Enqueue must not be called after Stop.
func (e *Engine) Stop() {
	e.queueMu.Lock()
	q, done := e.queue, e.pumpDone
	e.queue, e.pumpDone = nil, nil
	e.queueMu.Unlock()
	if q == nil {
		return
	}
	close(q)
	<-done
}

// pump is the single consumer: it blocks for one frame, opportunistically
// drains more without blocking (up to batchSize), ingests the batch, and
// acknowledges any drain markers seen — after the frames queued before
// them, preserving Drain's "everything before me is ingested" contract.
func (e *Engine) pump(q chan qitem, done chan struct{}) {
	defer close(done)
	// The pump is the gauge's only writer; on exit the queue is drained
	// by contract, so the gauge must read 0 (it used to stick at the
	// last pre-exit sample). The zeroing defer runs before close(done),
	// so a Stop caller observes the reset.
	defer e.eo.queueDepth.SetInt(0)
	ims := make([]*imgproc.Image, 0, batchSize)
	tags := make([]int, 0, batchSize)
	var oldest time.Time
	var acks []chan struct{}
	flush := func() {
		if len(ims) > 0 {
			e.ingestBatchAt(ims, tags, oldest)
			ims, tags = ims[:0], tags[:0]
			oldest = time.Time{}
		}
		// Sample depth after the ingest — it reflects what accumulated
		// while the batch was ingesting, not the batch itself — and before
		// the acks close, so a Drain caller reads this sample, not the
		// previous batch's.
		e.eo.queueDepth.SetInt(len(q))
		for _, a := range acks {
			close(a)
		}
		acks = acks[:0]
	}
	for {
		it, ok := <-q
		if !ok {
			flush()
			return
		}
		closed := false
		for {
			if it.ack != nil {
				acks = append(acks, it.ack)
				break // flush now so the ack covers everything before it
			}
			ims = append(ims, it.im)
			tags = append(tags, it.tag)
			if oldest.IsZero() || it.at.Before(oldest) {
				oldest = it.at
			}
			if len(ims) >= batchSize {
				break
			}
			select {
			case next, ok2 := <-q:
				if !ok2 {
					closed = true
				} else {
					it = next
					continue
				}
			default:
			}
			break
		}
		flush()
		if closed {
			return
		}
	}
}
