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
		infos := r.Tenants()
		switch req.URL.Query().Get("format") {
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.writeProm(w, infos)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			payload := tenantzPayload{Tenants: []tenantzInfo{}, MaxResident: r.cfg.MaxResident}
			for _, inf := range infos {
				if inf.State == Resident || inf.State == Idle || inf.State == Hibernating {
					payload.Resident++
				}
				payload.Tenants = append(payload.Tenants, tenantzInfo{
					Info: inf, StateStr: inf.State.String(),
					IdleSeconds: inf.IdleFor.Seconds(),
				})
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(payload)
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			r.writeHTML(w, infos)
		}
	})
}

// writeProm renders the tenant table as Prometheus text through a
// throwaway obs registry, so naming/label hygiene is enforced by the
// same code path as every other exposition in the process.
func (r *Registry) writeProm(w http.ResponseWriter, infos []Info) {
	reg := obs.NewRegistry()
	resident := 0
	for _, inf := range infos {
		lt := obs.L("tenant", inf.ID)
		reg.Gauge("arams_tenantz_state", lt).SetInt(int(inf.State))
		reg.Gauge("arams_tenantz_queue_depth", lt).SetInt(inf.QueueDepth)
		reg.Gauge("arams_tenantz_ingests", lt).SetInt(inf.Ingests)
		reg.Gauge("arams_tenantz_pins", lt).SetInt(inf.Pins)
		reg.Gauge("arams_tenantz_idle_seconds", lt).Set(inf.IdleFor.Seconds())
		res := 0.0
		if inf.State == Resident || inf.State == Idle || inf.State == Hibernating {
			res = 1
			resident++
		}
		reg.Gauge("arams_tenantz_resident", lt).Set(res)
		if c := inf.Certificate; c != nil {
			reg.Gauge("arams_tenantz_cov_bound", lt).Set(c.CovBound())
			reg.Gauge("arams_tenantz_cert_rows", lt).SetInt(c.Rows)
		}
	}
	reg.Gauge("arams_tenantz_tenant_count").SetInt(len(infos))
	reg.Gauge("arams_tenantz_resident_count").SetInt(resident)
	if r.cfg.MaxResident > 0 {
		reg.Gauge("arams_tenantz_max_resident").SetInt(r.cfg.MaxResident)
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

func (r *Registry) writeHTML(w http.ResponseWriter, infos []Info) {
	payload := tenantzPayload{MaxResident: r.cfg.MaxResident}
	for _, inf := range infos {
		if inf.State == Resident || inf.State == Idle || inf.State == Hibernating {
			payload.Resident++
		}
		payload.Tenants = append(payload.Tenants, tenantzInfo{
			Info: inf, StateStr: inf.State.String(),
			IdleSeconds: inf.IdleFor.Seconds(),
		})
	}
	if err := tenantzTmpl.Execute(w, payload); err != nil {
		fmt.Fprintf(w, "<!-- render: %v -->", err)
	}
}
