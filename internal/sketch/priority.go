package sketch

import (
	"math"
	"sort"

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
}

type entry struct {
	priority float64
	weight   float64
	index    int
	row      []float64 // may be nil for weight-only streams
}

// NewPrioritySampler creates a sampler keeping the m highest-priority
// items.
func NewPrioritySampler(m int, g *rng.RNG) *PrioritySampler {
	if m <= 0 {
		panic("sketch: PrioritySampler needs m > 0")
	}
	return &PrioritySampler{m: m, g: g}
}

// Seen returns how many items have been offered.
func (p *PrioritySampler) Seen() int { return p.seen }

// PushWeight offers a weight-only item (used for subset-sum
// estimation).
func (p *PrioritySampler) PushWeight(w float64, index int) {
	p.push(entry{weight: w, index: index})
}

// PushRow offers a data row; its weight is the Euclidean row norm, as
// in the paper. The row is copied, so the caller may reuse its buffer.
func (p *PrioritySampler) PushRow(row []float64) {
	p.pushRowView(append([]float64(nil), row...), mat.Norm2(row))
}

// pushRowView is PushRow without the copy or the norm: the sampler
// keeps row itself, which must stay unchanged for as long as the
// sampler is read, and takes w for its weight ‖row‖.
func (p *PrioritySampler) pushRowView(row []float64, w float64) {
	p.push(entry{weight: w, row: row})
}

func (p *PrioritySampler) push(e entry) {
	e.index = p.seen
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

// Threshold returns τ, the (m+1)-th largest priority seen, or 0 when
// fewer than m+1 items were offered (in which case every item was
// kept and the estimator weights equal the true weights).
func (p *PrioritySampler) Threshold() float64 {
	if len(p.heap) <= p.m {
		return 0
	}
	return p.heap[0].priority
}

// selected returns the kept entries (the heap minus the threshold
// element) in stream order.
func (p *PrioritySampler) selected() []entry {
	heap := p.heap
	if len(heap) > p.m {
		// Drop the minimum-priority element, the heap's root: it defines τ.
		heap = heap[1:]
	}
	items := append([]entry(nil), heap...)
	sort.Slice(items, func(i, j int) bool { return items[i].index < items[j].index })
	return items
}

// Indices returns the stream indices of the kept items, ascending.
func (p *PrioritySampler) Indices() []int {
	sel := p.selected()
	out := make([]int, len(sel))
	for i, e := range sel {
		out[i] = e.index
	}
	return out
}

// EstimateSum returns the priority-sampling estimate Σ max(wᵢ, τ) of
// the total weight of the stream — unbiased per Duffield et al.
func (p *PrioritySampler) EstimateSum() float64 {
	tau := p.Threshold()
	var s float64
	for _, e := range p.selected() {
		if e.weight > tau {
			s += e.weight
		} else {
			s += tau
		}
	}
	return s
}

// Rows returns the kept data rows, in stream order, as a matrix. Only
// valid when items were offered with PushRow.
func (p *PrioritySampler) Rows(d int) *mat.Matrix {
	sel := p.selected()
	out := mat.New(len(sel), d)
	for i, e := range sel {
		if e.row == nil {
			panic("sketch: Rows called on a weight-only sampler")
		}
		copy(out.Row(i), e.row)
	}
	return out
}

// SampleRows keeps the ⌈beta·n⌉ highest-priority rows of x (weights are
// row norms) and returns them in stream order. beta in (0, 1]; beta >= 1
// returns a copy of x unchanged.
func SampleRows(x *mat.Matrix, beta float64, g *rng.RNG) *mat.Matrix {
	if beta >= 1 {
		return x.Clone()
	}
	return sampleBatch(x, beta, g, nil).Rows(x.ColsN)
}

// sampleBatch offers every row of x to a fresh ⌈beta·n⌉-slot sampler as
// a view into x (beta in (0, 1)), so selecting from a batch copies no
// row; x must outlive the reads of the returned sampler. norms2, when
// non-nil, holds each row's ‖·‖² as the caller already summed it, and
// the weight is its square root rather than two more passes over the
// row; a row whose squares all underflow then counts as zero-weight
// (mat.Norm2's rescaling would have kept it) and is dropped undrawn.
func sampleBatch(x *mat.Matrix, beta float64, g *rng.RNG, norms2 []float64) *PrioritySampler {
	if beta <= 0 {
		panic("sketch: SampleRows needs beta > 0")
	}
	m := int(beta*float64(x.RowsN) + 0.999999)
	if m < 1 {
		m = 1
	}
	ps := NewPrioritySampler(m, g)
	for i := 0; i < x.RowsN; i++ {
		row := x.Row(i)
		if norms2 != nil {
			ps.pushRowView(row, math.Sqrt(norms2[i]))
		} else {
			ps.pushRowView(row, mat.Norm2(row))
		}
	}
	return ps
}
