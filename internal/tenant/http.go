package tenant

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
)

// Info is one tenant's reportable state: what /tenantz serves and
// Tenants() returns.
type Info struct {
	ID    string `json:"id"`
	State State  `json:"-"`
	// QueueDepth counts the frames admitted but not yet sketched: the
	// ingress queue plus the batch the tenant's drain is sketching.
	QueueDepth int           `json:"queue_depth"`
	Pins       int           `json:"pins"`
	Ingests    int           `json:"ingests"`
	IdleFor    time.Duration `json:"-"`
	// Certificate is the last certified error bound: live for resident
	// tenants that have cut one, frozen at hibernation otherwise. Nil
	// until the first certificate is cut.
	Certificate *audit.Certificate `json:"certificate,omitempty"`
}

// tenantzInfo is Info with the non-JSON-native fields rendered.
type tenantzInfo struct {
	Info
	StateStr    string  `json:"state"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// tenantzPayload is the JSON document /tenantz?format=json serves.
type tenantzPayload struct {
	Tenants     []tenantzInfo `json:"tenants"`
	Resident    int           `json:"resident"`
	MaxResident int           `json:"max_resident,omitempty"`
}

// Handler serves the registry's tenant table: HTML by default,
// ?format=json for machine consumption, ?format=prom for a Prometheus
// exposition of per-tenant state/queue/residency/certificate series.
// The prom rendering is built on a fresh private obs registry per
// scrape — series come and go with tenants, and rebuilding from the
// live table is how the exposition stays lint-clean by construction.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		p := r.tenantz()
		switch req.URL.Query().Get("format") {
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writeProm(w, p)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(p)
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := tenantzTmpl.Execute(w, p); err != nil {
				fmt.Fprintf(w, "<!-- render: %v -->", err)
			}
		}
	})
}

// resident reports whether a tenant in state s holds its monitor in
// memory.
func resident(s State) bool { return s == Resident || s == Idle || s == Hibernating }

// tenantz is the tenant table every /tenantz form renders.
func (r *Registry) tenantz() tenantzPayload {
	p := tenantzPayload{Tenants: []tenantzInfo{}, MaxResident: r.cfg.MaxResident}
	for _, inf := range r.Tenants() {
		if resident(inf.State) {
			p.Resident++
		}
		p.Tenants = append(p.Tenants, tenantzInfo{
			Info: inf, StateStr: inf.State.String(),
			IdleSeconds: inf.IdleFor.Seconds(),
		})
	}
	return p
}

// writeProm renders the tenant table as Prometheus text through a
// throwaway obs registry, so naming/label hygiene is enforced by the
// same code path as every other exposition in the process.
func writeProm(w http.ResponseWriter, p tenantzPayload) {
	reg := obs.NewRegistry()
	for _, inf := range p.Tenants {
		lt := obs.L("tenant", inf.ID)
		reg.Gauge("arams_tenantz_state", lt).SetInt(int(inf.State))
		reg.Gauge("arams_tenantz_queue_depth", lt).SetInt(inf.QueueDepth)
		reg.Gauge("arams_tenantz_ingests", lt).SetInt(inf.Ingests)
		reg.Gauge("arams_tenantz_pins", lt).SetInt(inf.Pins)
		reg.Gauge("arams_tenantz_idle_seconds", lt).Set(inf.IdleSeconds)
		res := 0.0
		if resident(inf.State) {
			res = 1
		}
		reg.Gauge("arams_tenantz_resident", lt).Set(res)
		if c := inf.Certificate; c != nil {
			reg.Gauge("arams_tenantz_cov_bound", lt).Set(c.CovBound())
			reg.Gauge("arams_tenantz_cert_rows", lt).SetInt(c.Rows)
		}
	}
	reg.Gauge("arams_tenantz_tenant_count").SetInt(len(p.Tenants))
	reg.Gauge("arams_tenantz_resident_count").SetInt(p.Resident)
	if p.MaxResident > 0 {
		reg.Gauge("arams_tenantz_max_resident").SetInt(p.MaxResident)
	}
	reg.WritePrometheus(w)
}

var tenantzTmpl = template.Must(template.New("tenantz").Parse(`<!doctype html>
<html><head><title>arams tenants</title><style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; }
th, td { padding: 4px 12px; border-bottom: 1px solid #ddd; text-align: left; }
th { border-bottom: 2px solid #999; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.resident { color: #0a7d33; } .hibernated { color: #888; }
.restoring, .hibernating { color: #b06f00; } .idle { color: #2b6cb0; }
</style></head><body>
<h1>tenants</h1>
<p>{{.Resident}} resident{{if .MaxResident}} / {{.MaxResident}} max{{end}}, {{len .Tenants}} total</p>
<p><a href="?format=prom">prometheus</a> · <a href="?format=json">json</a></p>
<table>
<tr><th>tenant</th><th>state</th><th>queue</th><th>ingests</th><th>idle</th><th>cov bound</th><th>cert rows</th></tr>
{{range .Tenants}}<tr>
<td>{{.ID}}</td>
<td class="{{.StateStr}}">{{.StateStr}}</td>
<td class="num">{{.QueueDepth}}</td>
<td class="num">{{.Ingests}}</td>
<td class="num">{{printf "%.1fs" .IdleSeconds}}</td>
<td class="num">{{if .Certificate}}{{printf "%.4g" .Certificate.CovBound}}{{else}}—{{end}}</td>
<td class="num">{{if .Certificate}}{{.Certificate.Rows}}{{else}}—{{end}}</td>
</tr>{{end}}
</table>
</body></html>
`))
