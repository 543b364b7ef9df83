package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"
)

// /tracez: the retained completed traces (K slowest + uniform sample +
// most recent — see traceStore) rendered as parent→child trees.
// ?format=json returns the same data as {"traces":[...TraceRecord]}
// for machine consumers (CI smoke validates it round-trips).

// TracezPayload is the JSON document served by /tracez?format=json.
type TracezPayload struct {
	Traces []TraceRecord `json:"traces"`
}

func (r *Registry) tracezHandler(w http.ResponseWriter, req *http.Request) {
	traces := r.Traces()
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(TracezPayload{Traces: traces})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	writeTracezHTML(w, traces)
}

func writeTracezHTML(w http.ResponseWriter, traces []TraceRecord) {
	fmt.Fprint(w, tracezHead)
	fmt.Fprintf(w, "<p class=\"muted\">%d retained trace(s) · slow=K-slowest ever, sample=uniform over history, recent=newest · <a href=\"/tracez?format=json\">json</a> · <a href=\"/statusz\">statusz</a></p>\n", len(traces))
	for _, tr := range traces {
		fmt.Fprintf(w, "<details><summary><code>%s</code> <b>%s</b> %s <span class=\"muted\">%s · %d span(s) · %s</span></summary>\n",
			tr.Trace.String(), html.EscapeString(tr.Root), fmtDurHTML(tr.Duration),
			tr.Retained, len(tr.Spans), tr.Start.Format(time.RFC3339Nano))
		fmt.Fprint(w, "<pre>")
		writeTraceTree(w, tr)
		fmt.Fprint(w, "</pre></details>\n")
	}
	fmt.Fprint(w, "</body></html>\n")
}

// writeTraceTree renders the spans of one trace as an indented tree,
// children sorted by start time. Orphans (parent span not retained,
// e.g. trimmed by traceSpansMax) attach to the root line.
func writeTraceTree(w http.ResponseWriter, tr TraceRecord) {
	children := make(map[ID][]SpanRecord)
	byID := make(map[ID]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.Span] = true
	}
	var roots []SpanRecord
	for _, sp := range tr.Spans {
		if sp.Parent == 0 || !byID[sp.Parent] {
			roots = append(roots, sp)
		} else {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byStart := func(ss []SpanRecord) {
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].Start.Before(ss[b].Start) })
	}
	byStart(roots)
	var walk func(sp SpanRecord, depth int)
	walk = func(sp SpanRecord, depth int) {
		line := strings.Repeat("  ", depth) + html.EscapeString(sp.Name)
		attrs := ""
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = k + "=" + sp.Attrs[k]
			}
			attrs = " {" + html.EscapeString(strings.Join(parts, " ")) + "}"
		}
		fmt.Fprintf(w, "%-48s %12s%s\n", line, sp.Duration.Round(time.Microsecond), attrs)
		cs := children[sp.Span]
		byStart(cs)
		for _, c := range cs {
			walk(c, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
}

func fmtDurHTML(d time.Duration) string { return d.Round(time.Microsecond).String() }

const tracezHead = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>tracez</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em auto; max-width: 80em; color: #222; padding: 0 1em; }
  .muted { color: #888; }
  code { background: #f3f3f3; padding: 0 .25em; border-radius: 3px; }
  details { margin: .4em 0; border: 1px solid #eee; border-radius: 4px; padding: .3em .6em; }
  summary { cursor: pointer; }
  pre { font: 12px/1.45 ui-monospace, monospace; overflow-x: auto; background: #fafafa; padding: .5em; }
</style></head><body>
<h1>tracez</h1>
`
