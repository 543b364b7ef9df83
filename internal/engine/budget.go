package engine

import (
	"sync"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
)

// Frame-budget / SLO tracking. LCLS delivers frames at the machine
// repetition rate (120 Hz for the datasets in the paper), so the
// monitor has 1/120 s of wall time per frame — amortized over a batch —
// before it falls behind the beam. The tracker turns every dispatch
// into a burn-rate observation (time spent ÷ time budgeted), keeps an
// EWMA of it, and:
//
//   - counts outright misses (burn > 1 for a batch) and journals them
//     as deadline_miss events, rate-limited so a sustained overload
//     doesn't flood the journal;
//   - fires the flight recorder once the EWMA crosses burnThreshold —
//     sustained overload is exactly the condition whose prelude is
//     worth dumping.

// Budget observability lives on the engine's engineObs handles (see
// obs.go): arams_engine_budget_burn_rate is the EWMA, and
// arams_engine_deadline_miss_total counts *frames* that belonged to an
// over-budget batch, not batches.

// DefaultFrameBudget is the per-frame wall-time budget when none is
// configured: one LCLS machine period at 120 Hz.
const DefaultFrameBudget = time.Second / 120

// burnThreshold is the EWMA burn rate that trips the flight recorder:
// sustained 2× over budget.
const burnThreshold = 2.0

// burnAlpha is the EWMA smoothing factor — ~5 batches of memory.
const burnAlpha = 0.2

// missJournalEvery rate-limits deadline_miss journal events.
const missJournalEvery = time.Second

// budgetTracker accumulates burn-rate state. The zero value is unusable;
// build with newBudgetTracker (nil when budgeting is disabled).
type budgetTracker struct {
	budget  time.Duration // per-frame
	journal *audit.Journal
	eo      *engineObs

	mu       sync.Mutex
	ewma     float64
	seeded   bool
	lastMiss time.Time
}

func newBudgetTracker(cfg Config, eo *engineObs) *budgetTracker {
	if cfg.FrameBudget < 0 {
		return nil
	}
	b := cfg.FrameBudget
	if b == 0 {
		b = DefaultFrameBudget
	}
	j := audit.Default()
	if cfg.Audit != nil {
		j = cfg.Audit.Journal()
	}
	eo.budgetFrame.Set(b.Seconds())
	return &budgetTracker{budget: b, journal: j, eo: eo}
}

// observe folds one dispatch in: elapsed wall time for n frames ending
// at stream index `at`. Returns the batch's burn rate.
func (bt *budgetTracker) observe(elapsed time.Duration, n, at int) float64 {
	if bt == nil || n <= 0 {
		return 0
	}
	allowed := time.Duration(n) * bt.budget
	burn := float64(elapsed) / float64(allowed)

	bt.mu.Lock()
	if !bt.seeded {
		bt.ewma, bt.seeded = burn, true
	} else {
		bt.ewma += burnAlpha * (burn - bt.ewma)
	}
	ewma := bt.ewma
	journalMiss := false
	now := time.Now()
	if burn > 1 {
		if now.Sub(bt.lastMiss) >= missJournalEvery {
			bt.lastMiss = now
			journalMiss = true
		}
	}
	bt.mu.Unlock()

	bt.eo.budgetBurn.Set(ewma)
	if burn > 1 {
		bt.eo.deadlineMiss.Add(float64(n))
		if journalMiss {
			bt.journal.Record(audit.KindDeadlineMiss, "batch exceeded frame budget",
				audit.A("burn", burn),
				audit.A("burn_ewma", ewma),
				audit.A("frames", float64(n)),
				audit.A("stream_index", float64(at)),
				audit.A("budget_ms", bt.budget.Seconds()*1e3),
				audit.A("elapsed_ms", elapsed.Seconds()*1e3))
		}
	}
	if ewma > burnThreshold {
		obs.Default().FlightTrigger("deadline_burn")
	}
	return burn
}
