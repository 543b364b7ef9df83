package parallel

import (
	"slices"
	"testing"

	"arams/internal/obs"
	"arams/internal/sketch"
)

// spanIndex builds name→spans and id→span lookups for one trace.
func spanIndex(tr obs.TraceRecord) (map[string][]obs.SpanRecord, map[obs.ID]obs.SpanRecord) {
	byName := map[string][]obs.SpanRecord{}
	byID := map[obs.ID]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		byID[sp.Span] = sp
	}
	return byName, byID
}

// chainTo walks sp's parent links and returns the names visited until
// the root (exclusive of sp itself).
func chainTo(t *testing.T, byID map[obs.ID]obs.SpanRecord, sp obs.SpanRecord) []string {
	t.Helper()
	var names []string
	cur := sp
	for cur.Parent != 0 {
		parent, ok := byID[cur.Parent]
		if !ok {
			t.Fatalf("span %s (%s): parent %s not retained — disconnected trace",
				sp.Span, sp.Name, cur.Parent)
		}
		cur = parent
		names = append(names, cur.Name)
	}
	return names
}

// TestTraceGoldenMergeLeg is the golden trace-reconstruction test: a
// tree merge must produce ONE connected trace under its parallel_run
// root, every leg parented inside its round — never off in a separate
// trace.
func TestTraceGoldenMergeLeg(t *testing.T) {
	x := testMatrix(200, 10, 7)
	global, stats := Run(SplitRows(x, 4), FDSketcher(6, sketch.Options{}), TreeMerge)
	if global.Seen() != x.RowsN {
		t.Fatalf("Seen = %d, want %d", global.Seen(), x.RowsN)
	}

	var tr obs.TraceRecord
	for _, cand := range obs.Default().Traces() { // newest first
		if cand.Root == "parallel_run" {
			tr = cand
			break
		}
	}
	byName, byID := spanIndex(tr)

	// Every span in the record must claim this trace and chain to the
	// run's root.
	for _, sp := range tr.Spans {
		if sp.Trace != tr.Trace {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.Trace, tr.Trace)
		}
		if sp.Parent == 0 {
			continue
		}
		chain := chainTo(t, byID, sp)
		if chain[len(chain)-1] != "parallel_run" {
			t.Fatalf("span %s roots at %q, want parallel_run (chain %v)", sp.Name, chain[len(chain)-1], chain)
		}
	}

	legs := 0
	for _, rs := range stats.Rounds {
		legs += rs.Legs
	}
	if len(byName["merge_round"]) != stats.MergeRounds || len(byName["merge_leg"]) != legs {
		t.Fatalf("trace has %d merge_round / %d merge_leg spans, want %d / %d",
			len(byName["merge_round"]), len(byName["merge_leg"]), stats.MergeRounds, legs)
	}
	// Golden shape: merge_leg → merge_round → merge → parallel_run.
	for _, leg := range byName["merge_leg"] {
		if got := chainTo(t, byID, leg); !slices.Equal(got, []string{"merge_round", "merge", "parallel_run"}) {
			t.Fatalf("merge_leg parent chain = %v", got)
		}
	}
}

// TestTraceUntracedRunOpensOwnTrace: a Run takes no parent trace and
// roots its own, so /tracez always has merge trees.
func TestTraceUntracedRunOpensOwnTrace(t *testing.T) {
	x := testMatrix(120, 8, 3)
	Run(SplitRows(x, 4), FDSketcher(5, sketch.Options{}), TreeMerge)
	for _, tr := range obs.Default().Traces() {
		if tr.Root == "parallel_run" {
			return
		}
	}
	t.Fatal("untraced Run produced no parallel_run trace root")
}
