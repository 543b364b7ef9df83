package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

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
	e := engine.New(engine.Config{
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

	if e.DeadlineMisses() == 0 {
		t.Fatal("1 ns budget produced no deadline misses")
	}
	if e.BurnRate() <= 2 {
		t.Fatalf("burn EWMA = %v, want > threshold 2", e.BurnRate())
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
	mk := func(budget time.Duration) *engine.Engine {
		return engine.New(engine.Config{
			FrameBudget: budget,
			Sketch:      sketch.Config{Ell0: 4, Beta: 1, Seed: 3},
			Window:      16,
		})
	}
	vecs := testVecs(8, 12, 22)
	tags := make([]int, len(vecs))
	for i := range tags {
		tags[i] = i
	}

	off := mk(-1)
	off.IngestVecs(cloneVecs(vecs), tags)
	if off.DeadlineMisses() != 0 || off.BurnRate() != 0 {
		t.Fatalf("disabled budget tracked: misses=%d burn=%v", off.DeadlineMisses(), off.BurnRate())
	}

	roomy := mk(time.Minute)
	roomy.IngestVecs(cloneVecs(vecs), tags)
	if roomy.DeadlineMisses() != 0 {
		t.Fatalf("minute-per-frame budget missed %d deadlines", roomy.DeadlineMisses())
	}
	if burn := roomy.BurnRate(); burn <= 0 || burn >= 1 {
		t.Fatalf("burn rate = %v, want in (0, 1)", burn)
	}
}
