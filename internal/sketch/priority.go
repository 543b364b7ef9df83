package sketch

import (
	"math"
	"slices"

	"arams/internal/mat"
	"arams/internal/rng"
)

// PrioritySampler implements priority sampling (Duffield, Lund &
// Thorup 2007) over a stream of weighted items: each item i receives
// priority qᵢ = wᵢ/uᵢ with uᵢ uniform in (0,1), and the m items with the
// largest priorities are kept. The (m+1)-th largest priority is the
// threshold τ, and max(wᵢ, τ) is an unbiased estimator weight for
// subset sums over the kept items.
//
// In ARAMS the item weight is the row norm ‖Aᵢ‖, so the sampler keeps
// the "most important" rows of each batch before they reach the
// Frequent Directions sketch.
type PrioritySampler struct {
	m    int // number of items to keep
	g    *rng.RNG
	heap []entry // min-heap on priority, size at most m+1
	seen int
	sel  []entry // selected's result, reused
}

type entry struct {
	priority float64
	weight   float64
	index    int
	row      []float64
}

// NewPrioritySampler creates a sampler keeping the m highest-priority
// items.
func NewPrioritySampler(m int, g *rng.RNG) *PrioritySampler {
	if m <= 0 {
		panic("sketch: PrioritySampler needs m > 0")
	}
	return &PrioritySampler{m: m, g: g}
}

// push offers a data row with weight w = ‖row‖, as in the paper. The
// sampler keeps row itself, which must stay unchanged for as long as
// the sampler is read.
func (p *PrioritySampler) push(row []float64, w float64) {
	e := entry{weight: w, index: p.seen, row: row}
	p.seen++
	if e.weight <= 0 {
		// Zero-weight rows carry no information for the sketch and
		// would produce zero priorities anyway.
		return
	}
	e.priority = e.weight / p.g.Float64Open()
	if len(p.heap) < p.m+1 {
		p.heap = append(p.heap, e)
		p.siftUp(len(p.heap) - 1)
		return
	}
	if e.priority <= p.heap[0].priority {
		return
	}
	p.heap[0] = e
	p.siftDown(0)
}

func (p *PrioritySampler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if p.heap[parent].priority <= p.heap[i].priority {
			break
		}
		p.heap[parent], p.heap[i] = p.heap[i], p.heap[parent]
		i = parent
	}
}

func (p *PrioritySampler) siftDown(i int) {
	n := len(p.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && p.heap[l].priority < p.heap[smallest].priority {
			smallest = l
		}
		if r < n && p.heap[r].priority < p.heap[smallest].priority {
			smallest = r
		}
		if smallest == i {
			return
		}
		p.heap[i], p.heap[smallest] = p.heap[smallest], p.heap[i]
		i = smallest
	}
}

// selected returns the kept entries (the heap minus the threshold
// element) in stream order, in storage the sampler reuses: the result
// is valid until the sampler is next reset or dropped.
func (p *PrioritySampler) selected() []entry {
	heap := p.heap
	if len(heap) > p.m {
		// Drop the minimum-priority element, the heap's root: it defines τ.
		heap = heap[1:]
	}
	p.sel = append(p.sel[:0], heap...)
	slices.SortFunc(p.sel, func(a, b entry) int { return a.index - b.index })
	return p.sel
}

// sample offers every row of x to p, emptied first and set to keep
// ⌈beta·n⌉ of them (beta in (0, 1)), as a view into x, so selecting from
// a batch copies no row; x must outlive the reads of the selection. A
// sampler reused batch after batch keeps its heap's storage, so it
// allocates nothing once its heap has grown to the largest batch's m+1.
// norms2, when non-nil, holds each row's ‖·‖² as the caller already
// summed it, and the weight is its square root rather than two more
// passes over the row; a row whose squares all underflow then counts as
// zero-weight (mat.Norm2's rescaling would have kept it) and is dropped
// undrawn.
func (p *PrioritySampler) sample(x *mat.Matrix, beta float64, norms2 []float64) {
	if beta <= 0 {
		panic("sketch: sampling needs beta > 0")
	}
	p.m = max(1, int(beta*float64(x.RowsN)+0.999999))
	p.heap, p.seen = p.heap[:0], 0
	for i := 0; i < x.RowsN; i++ {
		row := x.Row(i)
		if norms2 != nil {
			p.push(row, math.Sqrt(norms2[i]))
		} else {
			p.push(row, mat.Norm2(row))
		}
	}
}

// drop clears the entries' views into the last batch, so a sampler kept
// between batches pins none of its rows.
func (p *PrioritySampler) drop() {
	clear(p.heap)
	clear(p.sel)
}
