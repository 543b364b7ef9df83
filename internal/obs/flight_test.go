package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderDumpCooldownAndClose(t *testing.T) {
	r := NewRegistry()
	dir := t.TempDir()
	fr, err := r.ArmFlightRecorder(FlightConfig{
		Dir:         dir,
		SampleEvery: 5 * time.Millisecond,
		Cooldown:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	r.Counter("test_flight_events_total").Add(3)
	sp := r.StartSpan("flight_stage")
	sp.End()
	// Let the sampler capture at least one metric snapshot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fr.mu.Lock()
		n := len(fr.samples)
		fr.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	path := r.FlightTrigger("unit test!")
	if path == "" {
		t.Fatal("trigger produced no dump")
	}
	if !strings.Contains(path, "unit_test_") {
		t.Fatalf("reason not sanitized into filename: %s", path)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	var last flightEntry
	var sawStageSpan, sawCounterDelta bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e flightEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("dump line is not valid JSON: %v: %s", err, sc.Text())
		}
		kinds = append(kinds, e.Kind)
		last = e
		if e.Kind == "span" && e.Span != nil && e.Span.Name == "flight_stage" {
			sawStageSpan = true
		}
		if e.Kind == "sample" {
			if _, ok := e.Metrics["Δtest_flight_events_total"]; ok {
				sawCounterDelta = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStageSpan {
		t.Fatalf("dump is missing the completed span; kinds seen: %v", kinds)
	}
	if !sawCounterDelta {
		t.Fatal("dump samples are missing the counter delta")
	}
	if last.Kind != "trigger" || last.Reason != "unit test!" {
		t.Fatalf("last entry = %+v, want the trigger with its raw reason", last)
	}

	// Inside the cooldown: counted, suppressed, no second file.
	if p2 := r.FlightTrigger("again"); p2 != "" {
		t.Fatalf("trigger inside cooldown wrote %s", p2)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1 {
		t.Fatalf("%d files in the dump directory (%v), want 1", len(files), err)
	}
	if v := r.Counter("arams_flight_triggers_suppressed_total").Value(); v != 1 {
		t.Fatalf("suppressed counter = %v, want 1", v)
	}

	fr.Close()
	if p3 := r.FlightTrigger("after close"); p3 != "" {
		t.Fatalf("trigger after Close wrote %s", p3)
	}
}

func TestFlightTriggerUnarmed(t *testing.T) {
	r := NewRegistry()
	if p := r.FlightTrigger("nothing armed"); p != "" {
		t.Fatalf("unarmed trigger returned %q", p)
	}
}

func TestFlightRecorderNeedsDir(t *testing.T) {
	if _, err := NewRegistry().ArmFlightRecorder(FlightConfig{}); err == nil {
		t.Fatal("ArmFlightRecorder accepted an empty dump directory")
	}
}
