package engine

import (
	"fmt"

	"arams/internal/obs"
)

// Per-engine observability handles. A single-stream process registers
// the same unlabeled series it always did; a tenant-scoped engine
// (Config.Tenant != "") registers the same names with a tenant="<id>"
// label so N engines in one process expose N distinguishable series.
// The registry dedupes by (name, sorted labels), so the tenant == ""
// path yields *exactly* the package-lifetime metric objects every other
// unlabeled lookup gets — metric names on the default path are
// byte-identical to the pre-tenant engine, no label explosion.
type engineObs struct {
	tenant string // "" on the default path

	ingestLatency *obs.Histogram
	framesTotal   *obs.Counter
	rejected      *obs.Counter // frames dropped for a non-finite element
	windowSize    *obs.Gauge
	engineEll     *obs.Gauge
	shardCount    *obs.Gauge
	reconciles    *obs.Counter
	budgetBurn    *obs.Gauge
	deadlineMiss  *obs.Counter
	budgetFrame   *obs.Gauge
}

func newEngineObs(tenant string) *engineObs {
	r := obs.Default()
	var ls []obs.Label
	if tenant != "" {
		ls = []obs.Label{obs.L("tenant", tenant)}
	}
	return &engineObs{
		tenant:        tenant,
		ingestLatency: r.Histogram("arams_engine_ingest_batch_seconds", ls...),
		framesTotal:   r.Counter("arams_engine_frames_total", ls...),
		rejected:      r.Counter("arams_engine_frames_rejected_total", ls...),
		windowSize:    r.Gauge("arams_engine_window_size", ls...),
		engineEll:     r.Gauge("arams_engine_sketch_ell", ls...),
		shardCount:    r.Gauge("arams_engine_shards", ls...),
		reconciles:    r.Counter("arams_engine_reconciles_total", ls...),
		budgetBurn:    r.Gauge("arams_engine_budget_burn_rate", ls...),
		deadlineMiss:  r.Counter("arams_engine_deadline_miss_total", ls...),
		budgetFrame:   r.Gauge("arams_engine_frame_budget_seconds", ls...),
	}
}

// shardGauge builds the per-shard frames gauge, tenant-labeled when the
// engine is.
func (eo *engineObs) shardGauge(i int) *obs.Gauge {
	ls := []obs.Label{obs.L("shard", fmt.Sprint(i))}
	if eo.tenant != "" {
		ls = append(ls, obs.L("tenant", eo.tenant))
	}
	return obs.Default().Gauge("arams_engine_shard_frames", ls...)
}
