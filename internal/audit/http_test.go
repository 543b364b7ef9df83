package audit_test

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"arams/internal/audit"
)

// auditResponse mirrors the /audit JSON document.
type auditResponse struct {
	Certificate struct {
		Rows       int     `json:"rows"`
		Ell        int     `json:"ell"`
		ShrinkMass float64 `json:"shrink_mass"`
		FrobMass   float64 `json:"frob_mass"`
	} `json:"certificate"`
	CovBound float64       `json:"cov_bound"`
	RelBound float64       `json:"rel_bound"`
	Batches  int64         `json:"batches"`
	Alarms   int64         `json:"alarms"`
	Events   []audit.Event `json:"events"`
}

func getAudit(t *testing.T, a *audit.Auditor, j *audit.Journal, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	audit.Handler(a, j).ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", target, rec.Code)
	}
	return rec
}

// populatedAuditor produces an auditor with a certificate, a few
// journal events, and one alarm, for the handler tests to serve.
func populatedAuditor(t *testing.T) (*audit.Auditor, *audit.Journal) {
	t.Helper()
	a, j, _ := newTestAuditor(nil)
	for i := 0; i < 8; i++ {
		a.Observe(audit.Observation{Residual: 0.01, AcceptRate: math.NaN(), Cert: testCert()})
	}
	for i := 0; i < 5 && a.Alarms() == 0; i++ {
		a.Observe(audit.Observation{Residual: 0.6, AcceptRate: math.NaN(), Cert: testCert()})
	}
	if a.Alarms() == 0 {
		t.Fatal("setup failed to raise an alarm")
	}
	return a, j
}

// TestAuditHandlerJSON: the default response carries the certificate
// with derived bounds, the counters, and the journal tail.
func TestAuditHandlerJSON(t *testing.T) {
	a, _ := populatedAuditor(t)
	rec := getAudit(t, a, nil, "/audit")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var resp auditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	cert := testCert()
	if resp.Certificate.Rows != cert.Rows || resp.Certificate.Ell != cert.Ell {
		t.Fatalf("certificate = %+v, want rows=%d ell=%d", resp.Certificate, cert.Rows, cert.Ell)
	}
	if resp.CovBound != cert.CovBound() || resp.RelBound != cert.RelBound() {
		t.Fatalf("bounds = %v/%v, want %v/%v", resp.CovBound, resp.RelBound, cert.CovBound(), cert.RelBound())
	}
	if resp.Batches != a.Batches() || resp.Alarms != a.Alarms() {
		t.Fatalf("counters = %d/%d, want %d/%d", resp.Batches, resp.Alarms, a.Batches(), a.Alarms())
	}
	if len(resp.Events) == 0 {
		t.Fatal("no events served")
	}
}

// TestAuditHandlerQueryParams: kind/n/since filter the served events.
func TestAuditHandlerQueryParams(t *testing.T) {
	a, j := populatedAuditor(t)
	var resp auditResponse

	json.Unmarshal(getAudit(t, a, nil, "/audit?kind=alarm").Body.Bytes(), &resp)
	if len(resp.Events) != 1 || resp.Events[0].Kind != audit.KindAlarm {
		t.Fatalf("kind=alarm served %+v", resp.Events)
	}
	alarmSeq := resp.Events[0].Seq

	json.Unmarshal(getAudit(t, a, nil, "/audit?n=1").Body.Bytes(), &resp)
	if len(resp.Events) != 1 {
		t.Fatalf("n=1 served %d events", len(resp.Events))
	}

	json.Unmarshal(getAudit(t, a, nil, "/audit?since="+itoa(alarmSeq-1)).Body.Bytes(), &resp)
	for _, ev := range resp.Events {
		if ev.Seq <= alarmSeq-1 {
			t.Fatalf("since filter leaked seq %d", ev.Seq)
		}
	}
	if len(resp.Events) == 0 {
		t.Fatal("since filter dropped everything")
	}

	// n=0 means everything in the ring.
	json.Unmarshal(getAudit(t, a, nil, "/audit?n=0").Body.Bytes(), &resp)
	if len(resp.Events) != j.Len() {
		t.Fatalf("n=0 served %d events, ring holds %d", len(resp.Events), j.Len())
	}
}

// TestAuditHandlerTable: format=table renders the human view with the
// certificate header and the event columns.
func TestAuditHandlerTable(t *testing.T) {
	a, _ := populatedAuditor(t)
	rec := getAudit(t, a, nil, "/audit?format=table")
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{"sketch-quality audit", "certificate:", "SEQ", "KIND", "alarm"} {
		if !strings.Contains(body, want) {
			t.Fatalf("table missing %q:\n%s", want, body)
		}
	}
}

// TestAuditHandlerJournalOnly: a nil auditor serves the journal with a
// zero certificate (the lclssim case).
func TestAuditHandlerJournalOnly(t *testing.T) {
	j := audit.NewJournal(8)
	j.Record(audit.KindRemoteDegrade, "degraded")
	rec := getAudit(t, nil, j, "/audit")
	var resp auditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if resp.Batches != 0 || resp.Certificate.Rows != 0 {
		t.Fatalf("nil auditor leaked certificate state: %+v", resp)
	}
	if len(resp.Events) != 1 || resp.Events[0].Kind != audit.KindRemoteDegrade {
		t.Fatalf("journal-only events = %+v", resp.Events)
	}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
