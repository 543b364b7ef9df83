package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// budgetSeries names a tenant no other test or run shares and returns
// the engine budget series under its label, so each test reads counters
// it alone has moved, under -shuffle and -count alike.
func budgetSeries(t *testing.T) (tenant string, burn *obs.Gauge, misses *obs.Counter) {
	tenant = fmt.Sprintf("%s-%d", t.Name(), budgetRuns.Add(1))
	l := obs.L("tenant", tenant)
	return tenant, obs.Default().Gauge("arams_engine_budget_burn_rate", l),
		obs.Default().Counter("arams_engine_deadline_miss_total", l)
}

var budgetRuns atomic.Int64

// A 1 ns per-frame budget makes every dispatch a deadline miss, so the
// tracker must count misses, push the burn EWMA over the 2× threshold,
// journal a deadline_miss event, and trip the flight recorder.
func TestBudgetDeadlineMissAndFlightTrigger(t *testing.T) {
	dir := t.TempDir()
	fr, err := obs.Default().ArmFlightRecorder(obs.FlightConfig{Dir: dir, Cooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	journal := audit.NewJournal(128)
	auditor := audit.New(audit.Config{Journal: journal})
	tenant, burn, misses := budgetSeries(t)
	e := engine.New(engine.Config{
		Tenant:      tenant,
		Shards:      2,
		FrameBudget: time.Nanosecond,
		Sketch:      sketch.Config{Ell0: 4, Beta: 1, Seed: 3},
		Window:      32,
		Audit:       auditor,
		AuditEvery:  1 << 30, // keep the auditor quiet; this test is about the budget
	})

	vecs := testVecs(16, 12, 21)
	tags := make([]int, len(vecs))
	for i := range tags {
		tags[i] = i
	}
	e.IngestVecs(cloneVecs(vecs), tags)

	if got := misses.Value(); got != float64(len(vecs)) {
		t.Fatalf("1 ns budget: arams_engine_deadline_miss_total = %v, want every frame (%d)", got, len(vecs))
	}
	if burn.Value() <= 2 {
		t.Fatalf("arams_engine_budget_burn_rate = %v, want > threshold 2", burn.Value())
	}

	var miss *audit.Event
	for _, ev := range journal.Events() {
		if ev.Kind == audit.KindDeadlineMiss {
			ev := ev
			miss = &ev
		}
	}
	if miss == nil {
		t.Fatal("no deadline_miss event in the journal")
	}
	if miss.Get("burn", 0) <= 1 {
		t.Fatalf("deadline_miss burn attr = %v, want > 1", miss.Get("burn", 0))
	}
	if miss.Get("frames", 0) != float64(len(vecs)) {
		t.Fatalf("deadline_miss frames attr = %v, want %d", miss.Get("frames", 0), len(vecs))
	}

	// The over-threshold EWMA must have tripped the flight recorder.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range files {
		if strings.Contains(f.Name(), "deadline_burn") {
			found = true
			if fi, err := os.Stat(filepath.Join(dir, f.Name())); err != nil || fi.Size() == 0 {
				t.Fatalf("deadline_burn dump %s is empty or unreadable: %v", f.Name(), err)
			}
		}
	}
	if !found {
		t.Fatalf("no deadline_burn flight dump in %s (files: %v)", dir, files)
	}
}

// A negative budget disables tracking entirely; a generous budget
// observes without missing.
func TestBudgetDisabledAndWithinBudget(t *testing.T) {
	mk := func(budget time.Duration) (*engine.Engine, *obs.Gauge, *obs.Counter) {
		tenant, burn, misses := budgetSeries(t)
		return engine.New(engine.Config{
			Tenant:      tenant,
			FrameBudget: budget,
			Sketch:      sketch.Config{Ell0: 4, Beta: 1, Seed: 3},
			Window:      16,
		}), burn, misses
	}
	vecs := testVecs(8, 12, 22)
	tags := make([]int, len(vecs))
	for i := range tags {
		tags[i] = i
	}

	off, offBurn, offMisses := mk(-1)
	off.IngestVecs(cloneVecs(vecs), tags)
	if offMisses.Value() != 0 || offBurn.Value() != 0 {
		t.Fatalf("disabled budget tracked: misses=%v burn=%v", offMisses.Value(), offBurn.Value())
	}

	roomy, roomyBurn, roomyMisses := mk(time.Minute)
	roomy.IngestVecs(cloneVecs(vecs), tags)
	if roomyMisses.Value() != 0 {
		t.Fatalf("minute-per-frame budget missed %v deadlines", roomyMisses.Value())
	}
	if burn := roomyBurn.Value(); burn <= 0 || burn >= 1 {
		t.Fatalf("burn rate = %v, want in (0, 1)", burn)
	}
}
