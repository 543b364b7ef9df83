package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// snapWith builds a minimal remote snapshot for merge tests.
func snapWith(counters, gauges []MetricPoint, hists []HistogramPoint) RegistrySnapshot {
	return RegistrySnapshot{Counters: counters, Gauges: gauges, Histograms: hists}
}

func renderFleet(t *testing.T, v *FleetView) string {
	t.Helper()
	var buf bytes.Buffer
	v.WritePrometheus(&buf)
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged fleet exposition invalid: %v\n%s", err, buf.String())
	}
	return buf.String()
}

func TestFleetMergeRelabelsAndValidates(t *testing.T) {
	v := NewFleetView(time.Minute)
	v.Update("w0", snapWith(
		[]MetricPoint{{Name: "jobs_total", Value: 3}},
		[]MetricPoint{{Name: "depth", Labels: map[string]string{"shard": "0"}, Value: 2}},
		[]HistogramPoint{{Name: "lat_seconds", Bounds: []float64{0.1, 1}, Counts: []uint64{4, 1, 0}, Sum: 0.9, Count: 5}},
	))
	v.Update("w1", snapWith(
		[]MetricPoint{{Name: "jobs_total", Value: 7}},
		nil, nil,
	))

	out := renderFleet(t, v)
	for _, want := range []string{
		`jobs_total{worker="w0"} 3`,
		`jobs_total{worker="w1"} 7`,
		`depth{shard="0",worker="w0"} 2`,
		`lat_seconds_bucket{worker="w0",le="0.1"} 4`,
		`lat_seconds_bucket{worker="w0",le="1"} 5`,
		`lat_seconds_bucket{worker="w0",le="+Inf"} 5`,
		`lat_seconds_sum{worker="w0"} 0.9`,
		`lat_seconds_count{worker="w0"} 5`,
		`arams_fleet_worker_up{worker="w0"} 1`,
		`arams_fleet_worker_up{worker="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q\n%s", want, out)
		}
	}
	// One TYPE line per name, declared before its samples.
	if strings.Count(out, "# TYPE jobs_total ") != 1 {
		t.Errorf("jobs_total TYPE declared %d times", strings.Count(out, "# TYPE jobs_total "))
	}
}

func TestFleetMergeKindCollisionSkipsLaterWorker(t *testing.T) {
	v := NewFleetView(time.Minute)
	// w0 registers "x" as a counter; w1 claims the same name is a gauge.
	v.Update("w0", snapWith([]MetricPoint{{Name: "x", Value: 1}}, nil, nil))
	v.Update("w1", snapWith(nil, []MetricPoint{{Name: "x", Value: 9}}, nil))

	out := renderFleet(t, v)
	if !strings.Contains(out, `x{worker="w0"} 1`) {
		t.Errorf("first registration's series missing:\n%s", out)
	}
	if strings.Contains(out, `x{worker="w1"}`) {
		t.Errorf("kind-colliding series leaked into exposition:\n%s", out)
	}
	if strings.Count(out, "# TYPE x ") != 1 {
		t.Errorf("colliding name declared more than once:\n%s", out)
	}
}

func TestFleetMergeLabelCollisionDropsDuplicateSeries(t *testing.T) {
	v := NewFleetView(time.Minute)
	// w1's snapshot already carries a worker="w0" label (a coordinator
	// scraping itself re-exports its fabric metrics); merging must not
	// emit the same series key twice.
	v.Update("w0", snapWith([]MetricPoint{{Name: "rpc_total", Value: 5}}, nil, nil))
	v.Update("w1", snapWith([]MetricPoint{
		{Name: "rpc_total", Labels: map[string]string{"worker": "w0"}, Value: 11},
	}, nil, nil))

	out := renderFleet(t, v)
	if got := strings.Count(out, `rpc_total{worker="w0"}`); got != 1 {
		t.Errorf("series key emitted %d times, want 1:\n%s", got, out)
	}
}

func TestFleetStaleWorkerDropsOutButStaysVisible(t *testing.T) {
	v := NewFleetView(10 * time.Millisecond)
	v.Update("dead", snapWith([]MetricPoint{{Name: "stale_total", Value: 4}}, nil, nil))
	time.Sleep(30 * time.Millisecond)
	v.Update("live", snapWith([]MetricPoint{{Name: "fresh_total", Value: 1}}, nil, nil))

	out := renderFleet(t, v)
	if strings.Contains(out, "stale_total") {
		t.Errorf("stale worker's series still exposed:\n%s", out)
	}
	for _, want := range []string{
		`arams_fleet_worker_up{worker="dead"} 0`,
		`arams_fleet_worker_up{worker="live"} 1`,
		`arams_fleet_worker_age_seconds{worker="dead"}`,
		`fresh_total{worker="live"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}

	// The JSON form reports the member as stale rather than hiding it.
	var members []fleetMember
	for _, m := range v.members() {
		members = append(members, m)
	}
	byName := map[string]fleetMember{}
	for _, m := range members {
		byName[m.name] = m
	}
	if !byName["dead"].stale {
		t.Error("dead member not marked stale")
	}
	if byName["live"].stale {
		t.Error("live member marked stale")
	}
}

func TestFleetIncludeLocalRendersLive(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("local_total")
	c.Inc()

	v := NewFleetView(time.Minute)
	v.IncludeLocal("coordinator", reg)

	out := renderFleet(t, v)
	if !strings.Contains(out, `local_total{worker="coordinator"} 1`) {
		t.Errorf("local registry series missing:\n%s", out)
	}
	// Live re-export: a later render sees the new value without Update.
	c.Inc()
	out = renderFleet(t, v)
	if !strings.Contains(out, `local_total{worker="coordinator"} 2`) {
		t.Errorf("local registry not re-exported live:\n%s", out)
	}
	if !strings.Contains(out, `arams_fleet_worker_up{worker="coordinator"} 1`) {
		t.Errorf("local member missing up series:\n%s", out)
	}
}

func TestFleetzJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Inc()
	v := NewFleetView(time.Minute)
	v.IncludeLocal("coordinator", reg)
	v.Update("w0", reg.Export())

	payload := FleetzPayload{}
	for _, m := range v.members() {
		payload.Workers = append(payload.Workers, FleetMember{
			Name: m.name, AgeSeconds: m.age.Seconds(), Stale: m.stale, Snapshot: m.snap})
	}
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	var again FleetzPayload
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if len(again.Workers) != 2 {
		t.Fatalf("round trip lost members: %d", len(again.Workers))
	}
	if again.Workers[0].Snapshot.Counters[0].Name != "a_total" {
		t.Fatalf("round trip lost counter: %+v", again.Workers[0].Snapshot)
	}
}

// TestFleetSkipsSeriesItCannotHold: a snapshot is wire input, so a
// series the merged registry cannot hold is skipped, and the rest of
// the member's series still render into a valid exposition.
func TestFleetSkipsSeriesItCannotHold(t *testing.T) {
	v := NewFleetView(time.Minute)
	v.Update("w0", snapWith(
		[]MetricPoint{{Name: "ok_total", Value: 2}},
		[]MetricPoint{
			{Name: "bad name", Value: 1},
			{Name: "bad_label", Labels: map[string]string{"bad-key": "x"}, Value: 1},
		},
		[]HistogramPoint{
			{Name: "extra_buckets_seconds", Bounds: []float64{0.1}, Counts: []uint64{1, 2, 3}, Sum: 1, Count: 6},
			{Name: "descending_seconds", Bounds: []float64{1, 0.1}, Counts: []uint64{1, 1, 1}, Sum: 1, Count: 3},
			{Name: "le_labelled_seconds", Labels: map[string]string{"le": "x"}, Bounds: []float64{0.1}, Counts: []uint64{1, 2}, Sum: 1, Count: 3},
			{Name: "good_seconds", Bounds: []float64{0.1}, Counts: []uint64{1, 2}, Sum: 1, Count: 3},
		},
	))

	out := renderFleet(t, v)
	for _, gone := range []string{"bad name", "bad_label", "extra_buckets_seconds", "descending_seconds", "le_labelled_seconds"} {
		if strings.Contains(out, gone) {
			t.Errorf("series %q should have been skipped:\n%s", gone, out)
		}
	}
	for _, want := range []string{
		`ok_total{worker="w0"} 2`,
		`good_seconds_bucket{worker="w0",le="+Inf"} 3`,
		`arams_fleet_worker_up{worker="w0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
