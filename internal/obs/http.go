package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
)

// Handle registers an extra endpoint served by Handler alongside the
// built-in set — the hook subsystems use to mount their own surfaces
// (e.g. internal/audit's /audit) onto the same listener. Registering
// the same path again replaces the previous handler.
func (r *Registry) Handle(path string, h http.Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.extra == nil {
		r.extra = make(map[string]http.Handler)
	}
	r.extra[path] = h
}

// Handle registers an extra endpoint on the default registry.
func Handle(path string, h http.Handler) { Default().Handle(path, h) }

// Handler returns the observability endpoint set for the registry:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  full JSON dump (metrics + quantiles + traced spans)
//	/healthz       liveness probe ("ok")
//	/statusz       self-contained live HTML dashboard
//	/tracez        retained traces as parent-child trees (?format=json)
//	/debug/pprof/  the standard net/http/pprof profiles
//
// plus any endpoints registered with Handle. Extra endpoints are looked
// up per request, so a subsystem may mount its surface after the server
// has started serving (e.g. the tenant registry mounting /tenantz once
// its configuration is assembled). The root path redirects to /statusz.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		name := filepath.Base(os.Args[0])
		fmt.Fprintf(w, statuszHTML, name, name)
	})
	mux.HandleFunc("/tracez", r.tracezHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		http.Redirect(w, req, "/statusz", http.StatusFound)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		h := r.extra[req.URL.Path]
		r.mu.Unlock()
		if h != nil {
			h.ServeHTTP(w, req)
			return
		}
		mux.ServeHTTP(w, req)
	})
}

// Handler returns the endpoint set for the default registry.
func Handler() http.Handler { return Default().Handler() }

// statuszHTML is the self-contained dashboard: it polls /metrics.json
// every 2s and renders stage timings, sketch state, and recent spans.
// The single %s is the program name.
const statuszHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%s — statusz</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em auto; max-width: 72em; color: #222; padding: 0 1em; }
  h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; border-bottom: 1px solid #ddd; padding-bottom: .2em; }
  table { border-collapse: collapse; width: 100%%; }
  th, td { text-align: left; padding: .25em .7em; border-bottom: 1px solid #eee; font-variant-numeric: tabular-nums; }
  th { background: #f6f6f6; font-weight: 600; }
  td.num, th.num { text-align: right; }
  .muted { color: #888; }
  code { background: #f3f3f3; padding: 0 .25em; border-radius: 3px; }
  #err { color: #b00; }
</style>
</head>
<body>
<h1>%s <span class="muted" id="uptime"></span></h1>
<p class="muted">live view — refreshes every 2s ·
  <a href="/metrics">/metrics</a> · <a href="/metrics.json">/metrics.json</a> ·
  <a href="/tracez">/tracez</a> · <a href="/audit">/audit</a> ·
  <a href="/debug/pprof/">/debug/pprof/</a> · <a href="/healthz">/healthz</a>
  <span id="err"></span></p>
<h2>Process</h2><table id="proc"></table>
<h2>Build</h2><table id="build"></table>
<div id="serieswrap" style="display:none"><h2>Quality history</h2><table id="series"></table></div>
<h2>Stage timings</h2><table id="hist"></table>
<h2>Counters</h2><table id="counters"></table>
<h2>Gauges</h2><table id="gauges"></table>
<h2>Recent spans</h2><table id="spans"></table>
<script>
function fmtDur(s) {
  if (!isFinite(s)) return "-";
  if (s < 1e-3) return (s*1e6).toFixed(1) + "µs";
  if (s < 1) return (s*1e3).toFixed(2) + "ms";
  if (s < 120) return s.toFixed(3) + "s";
  return (s/60).toFixed(1) + "m";
}
function fmtBytes(b) {
  const u = ["B","KiB","MiB","GiB"]; let i = 0;
  while (b >= 1024 && i < u.length-1) { b /= 1024; i++; }
  return b.toFixed(1) + " " + u[i];
}
function label(m) {
  let l = m.name;
  if (m.labels) l += "{" + Object.entries(m.labels).map(([k,v]) => k+'="'+v+'"').join(",") + "}";
  return l;
}
function rows(id, header, body) {
  document.getElementById(id).innerHTML =
    "<tr>" + header.map(h => "<th" + (h[1]?' class="num"':"") + ">" + h[0] + "</th>").join("") + "</tr>" +
    body.join("");
}
// sparkline renders points ([unix_ms, v] pairs) as a tiny inline SVG.
function sparkline(points) {
  if (!points || points.length < 2) return '<span class="muted">—</span>';
  const W = 180, H = 24, n = points.length;
  let lo = Infinity, hi = -Infinity;
  for (const p of points) { if (p[1] < lo) lo = p[1]; if (p[1] > hi) hi = p[1]; }
  const span = (hi - lo) || 1;
  const pts = points.map((p, i) =>
    (i*(W-2)/(n-1)+1).toFixed(1) + "," + (H-2-(p[1]-lo)*(H-4)/span).toFixed(1)).join(" ");
  return '<svg width="'+W+'" height="'+H+'" style="vertical-align:middle">' +
    '<polyline fill="none" stroke="#36c" stroke-width="1.2" points="'+pts+'"/></svg>';
}
function fmtVal(v) {
  if (!isFinite(v)) return "-";
  if (v !== 0 && (Math.abs(v) < 1e-3 || Math.abs(v) >= 1e6)) return v.toExponential(3);
  return +v.toPrecision(6);
}
async function tick() {
  let d;
  try {
    d = await (await fetch("/metrics.json")).json();
    document.getElementById("err").textContent = "";
  } catch (e) {
    document.getElementById("err").textContent = " — fetch failed: " + e;
    return;
  }
  document.getElementById("uptime").textContent = "up " + fmtDur(d.uptime_seconds);
  rows("proc", [["stat"],["value",1]], [
    ["goroutines", d.goroutines],
    ["heap alloc", fmtBytes(d.alloc_bytes)],
    ["sys", fmtBytes(d.sys_bytes)],
    ["gc cycles", d.gc_cycles],
  ].map(r => "<tr><td>"+r[0]+'</td><td class="num">'+r[1]+"</td></tr>"));
  rows("build", [["fact"],["value",1]], Object.keys(d.build || {}).sort().map(k =>
    "<tr><td>"+k+'</td><td class="num"><code>'+d.build[k]+"</code></td></tr>"));
  const sr = d.series || [];
  document.getElementById("serieswrap").style.display = sr.length ? "" : "none";
  if (sr.length) {
    rows("series", [["series"],["history"],["last",1]],
      sr.map(s => "<tr><td><code>"+s.name+"</code></td><td>"+sparkline(s.points)+
        '</td><td class="num">'+
        (s.points.length ? fmtVal(s.points[s.points.length-1][1]) : "-")+"</td></tr>"));
  }
  rows("hist", [["histogram"],["count",1],["mean",1],["p50",1],["p90",1],["p99",1],["max",1]],
    d.histograms.map(h => "<tr><td><code>"+label(h)+"</code></td>"+
      [h.count, fmtDur(h.mean), fmtDur(h.p50), fmtDur(h.p90), fmtDur(h.p99), fmtDur(h.max)]
        .map(v => '<td class="num">'+v+"</td>").join("")+"</tr>"));
  rows("counters", [["counter"],["value",1]],
    d.counters.map(c => "<tr><td><code>"+label(c)+'</code></td><td class="num">'+c.value+"</td></tr>"));
  rows("gauges", [["gauge"],["value",1]],
    d.gauges.map(g => "<tr><td><code>"+label(g)+'</code></td><td class="num">'+g.value+"</td></tr>"));
  rows("spans", [["span"],["trace"],["start"],["duration",1]],
    d.spans.slice(0, 40).map(s => "<tr><td><code>"+s.name+"</code></td><td>"+
      (s.trace_id ? "<code>"+s.trace_id+"</code>" : '<span class="muted">—</span>')+"</td><td>"+s.start+
      '</td><td class="num">'+fmtDur(s.duration_ms/1e3)+"</td></tr>"));
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
