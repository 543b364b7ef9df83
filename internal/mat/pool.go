package mat

import (
	"runtime"
	"sync"
	"time"

	"arams/internal/obs"
)

// This file is the shared execution layer for the dense kernels: a
// process-wide bounded worker pool with a chunked parallel-for, plus
// the per-kernel timing instrumentation every public kernel records
// into. Before this layer each kernel call spun up its own ad-hoc
// goroutines and channels (Gram even ran a feeder goroutine for a
// 2ℓ×2ℓ product); now a fixed set of workers started once serves every
// kernel in the process, concurrent sketches included, and small
// shapes never leave the calling goroutine.

// Pool observability: queue depth is a live gauge, tasks/inline-runs
// are counters, and each public kernel records its wall time into a
// per-kernel histogram (arams_mat_kernel_seconds{kernel=...}).
var (
	obsPoolTasks   = obs.Default().Counter("arams_mat_pool_tasks_total")
	obsPoolInline  = obs.Default().Counter("arams_mat_pool_inline_total")
	obsPoolDepth   = obs.Default().Gauge("arams_mat_pool_queue_depth")
	obsPoolWorkers = obs.Default().Gauge("arams_mat_pool_workers")
	obsEigGiveUps  = obs.Default().Counter("arams_mat_eig_giveups_total")

	obsKernelMul    = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "mul"))
	obsKernelMulABt = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "mulabt"))
	obsKernelGram   = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "gram"))
	obsKernelEig    = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "eigsym"))
	obsKernelSVD    = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "svd"))
	obsKernelSVDG   = obs.Default().Histogram("arams_mat_kernel_seconds", obs.L("kernel", "svdgram"))
)

// The kernel set is fixed at start-up (inner.go); /statusz and
// /metrics.json report it beside the Go version.
func init() { obs.Default().SetBuildInfo("mat_kernels", KernelSet()) }

// observeSince records a kernel duration; split out so call sites stay
// one line and allocation-free.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// poolTask is one [lo, hi) chunk of a parallel-for.
type poolTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolSize  int
	poolQueue chan poolTask
)

// waitGroups recycles the WaitGroup of a parallel-for: its address
// travels through the queue, so one declared in parallelForOn would be
// a heap allocation per call — on the rotation path, two per rotation.
var waitGroups = sync.Pool{New: func() interface{} { return new(sync.WaitGroup) }}

// startPool launches the shared workers exactly once, lazily, so
// importing the package costs nothing until a kernel actually wants
// parallelism.
func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	if poolSize < 1 {
		poolSize = 1
	}
	poolQueue = newPoolQueue(poolSize)
	obsPoolWorkers.SetInt(poolSize)
}

// newPoolQueue builds a bounded task queue served by size workers. The
// queue holds a few chunks per worker: deep enough to keep workers busy
// across kernels, shallow enough that a saturated pool pushes work back
// onto callers instead of building a backlog.
func newPoolQueue(size int) chan poolTask {
	queue := make(chan poolTask, 4*size)
	for w := 0; w < size; w++ {
		go func() {
			for t := range queue {
				obsPoolDepth.SetInt(len(queue))
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return queue
}

// Workers returns the width of the shared kernel worker pool
// (GOMAXPROCS at first use).
func Workers() int {
	poolOnce.Do(startPool)
	return poolSize
}

// ParallelFor splits [0, n) into chunks of at least minChunk indices
// and runs fn over them on the shared pool. The caller always executes
// the first chunk itself and runs further chunks inline whenever the
// queue is full, so a ParallelFor never blocks behind unrelated
// kernels, never deadlocks when invoked from inside pool work, and
// degrades to a plain serial loop on single-core hosts. fn must be
// safe for concurrent invocation on disjoint ranges.
func ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	poolOnce.Do(startPool)
	parallelForOn(poolSize, poolQueue, n, minChunk, fn)
}

// parallelForOn is ParallelFor against an explicit pool, so tests can
// exercise the chunking, enqueueing, and inline-fallback logic on a
// multi-worker pool regardless of the host's core count.
func parallelForOn(size int, queue chan poolTask, n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if size == 1 || n <= minChunk {
		fn(0, n)
		return
	}
	chunks := (n + minChunk - 1) / minChunk
	if maxChunks := 4 * size; chunks > maxChunks {
		chunks = maxChunks
	}
	chunk := (n + chunks - 1) / chunks
	wg := waitGroups.Get().(*sync.WaitGroup)
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		select {
		case queue <- poolTask{fn: fn, lo: lo, hi: hi, wg: wg}:
			obsPoolTasks.Inc()
			obsPoolDepth.SetInt(len(queue))
		default:
			obsPoolInline.Inc()
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, min(chunk, n))
	wg.Wait()
	waitGroups.Put(wg)
}
