// Command obscheck validates a live observability endpoint set — the
// CI endpoint-smoke contract. Pointed at a running lclsmon (or any
// process serving the internal/obs mux) it verifies that:
//
//   - /metrics parses as Prometheus text exposition format 0.0.4
//     (TYPE lines, label syntax, histogram series completeness — see
//     obs.ValidateExposition), and contains every metric named in
//     -want;
//   - /tracez?format=json unmarshals into obs.TracezPayload and
//     survives a marshal→unmarshal round trip; with -min-traces N it
//     must hold at least N retained traces, every one of them
//     *connected*: each span's parent chain reaches the trace root;
//   - /metrics.json parses as a JSON object;
//   - /audit and /healthz answer 200 (-skip-audit drops the /audit
//     check for processes that don't mount it, e.g. fabricworker);
//   - with -want-spans, at least one retained trace on /tracez contains
//     every named span — the cross-process stitch check (a fabric run
//     must show worker_absorb spans inside the coordinator's traces);
//   - with -fleet-workers (/fleetz, label worker) and -tenants
//     (/tenantz, label tenant), the labelled view's prom form passes
//     ValidateExposition and carries a series labelled with every
//     listed id, and its JSON form parses (/fleetz into
//     obs.FleetzPayload) and names every listed id;
//   - with -forbid-labels, no sample on /metrics carries any of the
//     listed label keys — the guard that a single-tenant run's metric
//     names stay byte-identical to the historical unlabeled series
//     (no label explosion on the default path).
//
// Any violation prints the failing check and exits nonzero, so a CI
// step is just `obscheck -base http://127.0.0.1:9090 ...`.
//
// Usage:
//
//	obscheck -base http://127.0.0.1:9090 \
//	  -want arams_stage_duration_seconds,arams_engine_frames_total \
//	  -min-traces 1 -fleet-workers coordinator,worker0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"arams/internal/obs"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:9090", "base URL of the observability server")
	want := flag.String("want", "", "comma-separated metric names that must appear in /metrics")
	minTraces := flag.Int("min-traces", 0, "require at least this many retained traces in /tracez, each fully connected")
	wantSpans := flag.String("want-spans", "", "comma-separated span names; each must appear in at least one retained trace on /tracez")
	fleetWorkers := flag.String("fleet-workers", "", "comma-separated fleet member names; check /fleetz exposition validity and per-worker labels")
	tenantsWant := flag.String("tenants", "", "comma-separated tenant IDs; check /tenantz exposition validity and per-tenant labels")
	forbidLabels := flag.String("forbid-labels", "", "comma-separated label keys that must not appear on any /metrics sample (e.g. tenant for single-tenant runs)")
	skipAudit := flag.Bool("skip-audit", false, "skip the /audit check (for processes that don't mount it, e.g. fabricworker)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	flag.Parse()

	c := &checker{base: strings.TrimRight(*base, "/"), client: &http.Client{Timeout: *timeout}}
	c.checkMetrics(splitWant(*want))
	c.checkTracez(*minTraces, splitWant(*wantSpans))
	c.checkMetricsJSON()
	if workers := splitWant(*fleetWorkers); len(workers) > 0 {
		c.checkView("/fleetz", "worker", workers, fleetNames)
	}
	if ids := splitWant(*tenantsWant); len(ids) > 0 {
		c.checkView("/tenantz", "tenant", ids, tenantIDs)
	}
	if keys := splitWant(*forbidLabels); len(keys) > 0 {
		c.checkForbidLabels(keys)
	}
	if !*skipAudit {
		c.checkOK("/audit")
	}
	c.checkOK("/healthz")

	if c.failures > 0 {
		fmt.Fprintf(os.Stderr, "obscheck: %d check(s) failed\n", c.failures)
		os.Exit(1)
	}
	fmt.Printf("obscheck: all checks passed against %s\n", c.base)
}

func splitWant(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

type checker struct {
	base     string
	client   *http.Client
	failures int
}

func (c *checker) failf(format string, args ...interface{}) {
	c.failures++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func (c *checker) passf(format string, args ...interface{}) {
	fmt.Printf("ok:   "+format+"\n", args...)
}

// get fetches a path and returns the body, failing the check on
// transport errors or non-200 statuses.
func (c *checker) get(path string) []byte {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		c.failf("GET %s: %v", path, err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.failf("GET %s: reading body: %v", path, err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		c.failf("GET %s: status %d", path, resp.StatusCode)
		return nil
	}
	return body
}

func (c *checker) checkOK(path string) {
	if c.get(path) != nil {
		c.passf("%s answers 200", path)
	}
}

func (c *checker) checkMetrics(want []string) {
	body := c.get("/metrics")
	if body == nil {
		return
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		c.failf("/metrics is not valid exposition format: %v", err)
		return
	}
	c.passf("/metrics parses as Prometheus exposition format (%d bytes)", len(body))
	for _, name := range want {
		if !hasMetric(body, name) {
			c.failf("/metrics is missing metric %q", name)
			continue
		}
		c.passf("/metrics exposes %s", name)
	}
}

// hasMetric reports whether the exposition contains a sample (not just
// a comment) for the metric — a line starting with name followed by
// '{', ' ', or a histogram suffix.
func hasMetric(body []byte, name string) bool {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" {
			continue
		}
		switch rest[0] {
		case '{', ' ':
			return true
		case '_':
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasPrefix(rest, suf) {
					return true
				}
			}
		}
	}
	return false
}

func (c *checker) checkTracez(minTraces int, wantSpans []string) {
	body := c.get("/tracez?format=json")
	if body == nil {
		return
	}
	var payload obs.TracezPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		c.failf("/tracez?format=json does not unmarshal: %v", err)
		return
	}
	// Round trip: what the server sent must survive re-encoding, so
	// machine consumers can store and replay dumps losslessly.
	re, err := json.Marshal(payload)
	if err != nil {
		c.failf("/tracez payload does not re-marshal: %v", err)
		return
	}
	var again obs.TracezPayload
	if err := json.Unmarshal(re, &again); err != nil {
		c.failf("/tracez payload does not round-trip: %v", err)
		return
	}
	if len(again.Traces) != len(payload.Traces) {
		c.failf("/tracez round trip changed trace count: %d != %d", len(again.Traces), len(payload.Traces))
		return
	}
	c.passf("/tracez?format=json round-trips (%d trace(s))", len(payload.Traces))

	if len(payload.Traces) < minTraces {
		c.failf("/tracez holds %d trace(s), want >= %d", len(payload.Traces), minTraces)
		return
	}
	for _, tr := range payload.Traces {
		if err := connected(tr); err != nil {
			c.failf("trace %s (%s) is not connected: %v", tr.Trace, tr.Root, err)
			return
		}
	}
	if minTraces > 0 {
		c.passf("all %d retained trace(s) are connected parent→child trees", len(payload.Traces))
	}
	for _, name := range wantSpans {
		found := false
	scan:
		for _, tr := range payload.Traces {
			for _, sp := range tr.Spans {
				if sp.Name == name {
					found = true
					break scan
				}
			}
		}
		if !found {
			c.failf("/tracez holds no trace containing span %q", name)
			continue
		}
		c.passf("/tracez contains span %s", name)
	}
}

// checkView validates a labelled view — /fleetz (one member per
// worker label) or /tenantz (one tenant per tenant label): its
// Prometheus form must pass the exposition lint and carry a series
// labelled label="<id>" for every expected id, and its JSON form must
// parse (ids decodes it) and name every expected id.
func (c *checker) checkView(path, label string, want []string, ids func([]byte) ([]string, error)) {
	body := c.get(path + "?format=prom")
	if body == nil {
		return
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		c.failf("%s?format=prom is not valid exposition format: %v", path, err)
		return
	}
	c.passf("%s?format=prom parses as Prometheus exposition format (%d bytes)", path, len(body))
	for _, id := range want {
		l := fmt.Sprintf("%s=%q", label, id)
		if !strings.Contains(string(body), l) {
			c.failf("%s carries no series labeled %s", path, l)
			continue
		}
		c.passf("%s carries series for %s %s", path, label, id)
	}
	jbody := c.get(path + "?format=json")
	if jbody == nil {
		return
	}
	got, err := ids(jbody)
	if err != nil {
		c.failf("%s?format=json does not unmarshal: %v", path, err)
		return
	}
	c.passf("%s?format=json parses (%d entries)", path, len(got))
	named := make(map[string]bool, len(got))
	for _, id := range got {
		named[id] = true
	}
	for _, id := range want {
		if !named[id] {
			c.failf("%s?format=json omits %s %q", path, label, id)
		}
	}
}

// fleetNames decodes /fleetz?format=json into its member names.
func fleetNames(body []byte) ([]string, error) {
	var payload obs.FleetzPayload
	err := json.Unmarshal(body, &payload)
	names := make([]string, len(payload.Workers))
	for i, m := range payload.Workers {
		names[i] = m.Name
	}
	return names, err
}

// tenantIDs decodes /tenantz?format=json into its tenant IDs.
func tenantIDs(body []byte) ([]string, error) {
	var payload struct {
		Tenants []struct {
			ID string `json:"id"`
		} `json:"tenants"`
	}
	err := json.Unmarshal(body, &payload)
	ids := make([]string, len(payload.Tenants))
	for i, t := range payload.Tenants {
		ids[i] = t.ID
	}
	return ids, err
}

// checkForbidLabels scans every sample line on /metrics for forbidden
// label keys. A single-tenant run must emit exactly the historical
// unlabeled metric names; a tenant="..." leaking into the default path
// would silently double every engine series.
func (c *checker) checkForbidLabels(keys []string) {
	body := c.get("/metrics")
	if body == nil {
		return
	}
	bad := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		brace := strings.IndexByte(line, '{')
		if brace < 0 {
			continue
		}
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			continue
		}
		for _, part := range strings.Split(line[brace+1:end], ",") {
			key, _, ok := strings.Cut(part, "=")
			if !ok {
				continue
			}
			key = strings.TrimSpace(key)
			for _, forbidden := range keys {
				if key == forbidden {
					c.failf("/metrics sample carries forbidden label %q: %s", forbidden, line)
					bad++
				}
			}
		}
	}
	if bad == 0 {
		c.passf("/metrics carries none of the forbidden label keys (%s)", strings.Join(keys, ", "))
	}
}

// connected verifies one trace is a single tree: exactly one root span,
// and every other span's parent chain reaches it. The root has no
// parent, or — in a process whose part of the trace hangs under another
// process's span, as a fabric worker's does — it is the span the record
// is rooted at (tr.Root, tr.Start), and its parent is not in the trace.
func connected(tr obs.TraceRecord) error {
	byID := make(map[obs.ID]obs.SpanRecord, len(tr.Spans))
	for _, sp := range tr.Spans {
		if sp.Trace != tr.Trace {
			return fmt.Errorf("span %s carries trace %s", sp.Span, sp.Trace)
		}
		byID[sp.Span] = sp
	}
	var root obs.ID
	var roots int
	for _, sp := range tr.Spans {
		_, parentHere := byID[sp.Parent]
		if sp.Parent == 0 || !parentHere && sp.Name == tr.Root && sp.Start.Equal(tr.Start) {
			root = sp.Span
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("%d root spans, want 1", roots)
	}
	for _, sp := range tr.Spans {
		seen := map[obs.ID]bool{}
		cur := sp
		for cur.Span != root {
			if seen[cur.Span] {
				return fmt.Errorf("parent cycle at span %s", cur.Span)
			}
			seen[cur.Span] = true
			parent, ok := byID[cur.Parent]
			if !ok {
				return fmt.Errorf("span %s (%s) has unretained parent %s", sp.Span, sp.Name, cur.Parent)
			}
			cur = parent
		}
	}
	return nil
}

func (c *checker) checkMetricsJSON() {
	body := c.get("/metrics.json")
	if body == nil {
		return
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(body, &doc); err != nil {
		c.failf("/metrics.json does not parse: %v", err)
		return
	}
	c.passf("/metrics.json parses (%d top-level keys)", len(doc))
}
