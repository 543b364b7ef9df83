package engine

import (
	"time"

	"arams/internal/obs"
)

// Stage is one named unit of the analysis dataflow (preprocess, sketch,
// project, embed, cluster, anomaly...). Stages close over their inputs
// and outputs; the engine contributes uniform execution, span tracing,
// and per-stage wall-time accounting, so every pipeline entry point
// reports timings the same way.
type Stage struct {
	Name string
	Run  func()
}

// RunStagesIn executes the stages in order, recording one obs span per
// stage parented into an existing trace (zero context keeps them
// untraced), and returns each stage's wall time. Each stage's wall
// time lands in arams_stage_duration_seconds under its name. A nil Run
// is skipped (its time is absent from the map), which lets callers
// assemble stage graphs conditionally without special-casing execution.
func RunStagesIn(parent obs.SpanContext, stages []Stage) map[string]time.Duration {
	times := make(map[string]time.Duration, len(stages))
	for _, st := range stages {
		if st.Run == nil {
			continue
		}
		var sp obs.Span
		if parent.Trace != 0 {
			sp = obs.StartSpanIn(parent, st.Name)
		} else {
			sp = obs.StartSpan(st.Name)
		}
		st.Run()
		times[st.Name] = sp.End()
	}
	return times
}
