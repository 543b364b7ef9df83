package tenant_test

// Multi-tenant registry coverage: hibernate/restore bit-exactness
// (including a full process "death" between the two halves of a
// stream), residency-cap eviction equivalence, fair-share isolation
// when one tenant is wedged, /tenantz exposition hygiene, and a -race
// hammer with forced evictions.

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/rng"
	"arams/internal/sketch"
	"arams/internal/tenant"
)

func tenantFrames(n, w, h int, seed uint64) []*imgproc.Image {
	g := rng.New(seed)
	frames := make([]*imgproc.Image, n)
	for i := range frames {
		im := imgproc.NewImage(w, h)
		cx, cy := float64(i%w), float64((i/2)%h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				im.Set(x, y, 10/(1+dx*dx+dy*dy)+0.1*g.Norm())
			}
		}
		frames[i] = im
	}
	return frames
}

func tenantPipeline() pipeline.Config {
	return pipeline.Config{
		Sketch:    sketch.Config{Ell0: 6, Beta: 1, Seed: 21},
		LatentDim: 4,
		Shards:    2,
	}
}

func tenantConfig(dir string) tenant.Config {
	return tenant.Config{
		Dir:      dir,
		Pipeline: tenantPipeline(),
		Window:   16,
		Journal:  audit.NewJournal(256),
	}
}

// stateBytes drains a tenant and marshals its full monitor state, the
// registry-side equivalent of hashing every shard sketch, RNG position,
// and window frame at once.
func stateBytes(t *testing.T, r *tenant.Registry, id string) []byte {
	t.Helper()
	if err := r.Drain(id); err != nil {
		t.Fatalf("Drain(%s): %v", id, err)
	}
	m, release, err := r.Monitor(id)
	if err != nil {
		t.Fatalf("Monitor(%s): %v", id, err)
	}
	defer release()
	b, err := ckpt.Marshal(m.State())
	if err != nil {
		t.Fatalf("Marshal(%s): %v", id, err)
	}
	return b
}

// TestHibernateRestoreBitExact is the kill/restore acceptance test at
// the registry layer: a tenant is hibernated mid-stream, the process
// "dies" (the registry is closed and a fresh one opened over the same
// directory), and the stream resumes through the new registry, which
// restores the tenant lazily on its next frame. The final sketch state
// must match an always-resident plain Monitor bit for bit, and the
// composed certificate must still dominate the exactly-computed
// covariance error of the stacked shard sketches it describes.
func TestHibernateRestoreBitExact(t *testing.T) {
	const n, w, h, killAt = 64, 6, 6, 37
	frames := tenantFrames(n, w, h, 177)
	dir := t.TempDir()

	// Control: the PR-9-era single-stream path, no registry anywhere.
	control := pipeline.NewMonitor(tenantPipeline(), 16)
	for i, im := range frames {
		control.Ingest(im, i)
	}
	want, err := ckpt.Marshal(control.State())
	if err != nil {
		t.Fatalf("Marshal control: %v", err)
	}

	r, err := tenant.Open(tenantConfig(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < killAt; i++ {
		if err := r.Append("amo123", frames[i], i); err != nil {
			t.Fatalf("Append frame %d: %v", i, err)
		}
	}
	if err := r.Hibernate("amo123"); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The "kill": only dir/tenant-amo123.ckpt survives.

	r2, err := tenant.Open(tenantConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	infos := r2.Tenants()
	if len(infos) != 1 || infos[0].ID != "amo123" || infos[0].State != tenant.Hibernated {
		t.Fatalf("recovery scan found %+v, want one hibernated amo123", infos)
	}
	for i := killAt; i < n; i++ {
		if err := r2.Append("amo123", frames[i], i); err != nil {
			t.Fatalf("Append frame %d after restore: %v", i, err)
		}
	}
	got := stateBytes(t, r2, "amo123")
	if !bytes.Equal(got, want) {
		t.Fatal("hibernate→kill→restore changed the monitor state bytes")
	}

	// The restored certificate must still be a valid bound on the
	// exactly-computed covariance error (β = 1: the ledger covers the
	// whole stream).
	cert, err := r2.Certificate("amo123")
	if err != nil {
		t.Fatalf("Certificate: %v", err)
	}
	if cert.Rows != n {
		t.Fatalf("certificate covers %d rows, want %d", cert.Rows, n)
	}
	m, release, err := r2.Monitor("amo123")
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	b := stackedShards(m.State())
	release()
	a := mat.New(n, w*h)
	for i, im := range frames {
		copy(a.Row(i), im.Pix)
	}
	exact := sketch.CovErr(a, b)
	slack := 1e-8 * (1 + cert.FrobMass)
	if exact > cert.CovBound()+slack {
		t.Fatalf("exact covariance error %v exceeds restored certified bound %v",
			exact, cert.CovBound())
	}
}

// TestMaxResidentBitExact runs 32 tenants through a registry capped at
// 8 resident engines — so tenants hibernate and restore continuously
// under residency pressure — and demands every tenant's final state be
// bit-identical to the same streams through an uncapped registry.
func TestMaxResidentBitExact(t *testing.T) {
	const tenants, perTenant, w, h = 32, 24, 6, 6
	ids := make([]string, tenants)
	streams := make([][]*imgproc.Image, tenants)
	for i := range ids {
		ids[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		streams[i] = tenantFrames(perTenant, w, h, uint64(1000+i))
	}

	run := func(maxResident int) map[string][]byte {
		cfg := tenantConfig(t.TempDir())
		cfg.MaxResident = maxResident
		r, err := tenant.Open(cfg)
		if err != nil {
			t.Fatalf("Open(maxResident=%d): %v", maxResident, err)
		}
		defer r.Close()
		// Interleave round-robin across tenants so residency pressure
		// keeps rotating the LRU set through hibernation.
		for f := 0; f < perTenant; f++ {
			for i, id := range ids {
				if err := r.Append(id, streams[i][f], f); err != nil {
					t.Fatalf("Append(%s, %d): %v", id, f, err)
				}
			}
		}
		out := make(map[string][]byte, tenants)
		for _, id := range ids {
			out[id] = stateBytes(t, r, id)
		}
		return out
	}

	want := run(0) // always resident
	got := run(8)  // hibernation churn
	for _, id := range ids {
		if !bytes.Equal(got[id], want[id]) {
			t.Fatalf("tenant %s: state under MaxResident=8 differs from always-resident run", id)
		}
	}
}

// TestMidStreamRestoreUnderCap pins a mid-stream restore without
// leaning on timing: under MaxResident 1, tenant amo is drained, cxi's
// restore pushes the registry over the cap with amo its only evictable
// tenant, and amo's next frames restore it in the middle of its stream.
// The journal must record that restore, and amo's final state must
// equal an always-resident monitor's over the same frames.
func TestMidStreamRestoreUnderCap(t *testing.T) {
	const n, w, h = 48, 6, 6
	amo := tenantFrames(n, w, h, 183)
	cxi := tenantFrames(n/2, w, h, 184)
	control := pipeline.NewMonitor(tenantPipeline(), 16)
	defer control.Engine().Close()
	for i, im := range amo {
		control.Ingest(im, i)
	}
	want, err := ckpt.Marshal(control.State())
	if err != nil {
		t.Fatal(err)
	}

	cfg := tenantConfig(t.TempDir())
	cfg.MaxResident = 1
	r, err := tenant.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	feed := func(id string, frames []*imgproc.Image, from int) {
		t.Helper()
		for i, im := range frames {
			if err := r.Append(id, im, from+i); err != nil {
				t.Fatalf("Append(%s, %d): %v", id, from+i, err)
			}
		}
		if err := r.Drain(id); err != nil {
			t.Fatalf("Drain(%s): %v", id, err)
		}
	}
	feed("amo", amo[:n/2], 0)
	feed("cxi", cxi, 0)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if infos := r.Tenants(); infos[0].ID == "amo" && infos[0].State == tenant.Hibernated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("amo still not hibernated under MaxResident 1: %+v", r.Tenants())
		}
	}
	feed("amo", amo[n/2:], n/2)

	restored := false
	for _, ev := range cfg.Journal.Query(audit.Query{Kind: audit.KindTenantRestore}) {
		restored = restored || strings.HasSuffix(ev.Msg, ": amo")
	}
	if !restored {
		t.Fatal("journal holds no tenant_restore event for amo")
	}
	if got := stateBytes(t, r, "amo"); !bytes.Equal(got, want) {
		t.Fatal("mid-stream hibernate→restore under the cap changed amo's monitor state bytes")
	}
}

// TestFairShareIsolation wedges one tenant (its checkpoint is corrupt,
// so its restore fails and its frames can never drain) and verifies
// the failure is contained: its own Append surfaces the restore error
// once the quota fills, while a healthy neighbor streams to completion
// through the same registry.
func TestFairShareIsolation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tenant-wedged.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tenantConfig(dir)
	cfg.QueueQuota = 4
	r, err := tenant.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	frames := tenantFrames(32, 6, 6, 7)
	wedgedErr := make(chan error, 1)
	go func() {
		// The corrupt checkpoint makes the restore fail; the sticky
		// error must surface here instead of blocking forever.
		var err error
		for i := 0; i < 2*cfg.QueueQuota && err == nil; i++ {
			err = r.Append("wedged", frames[i], i)
		}
		wedgedErr <- err
	}()

	for i, im := range frames {
		if err := r.Append("healthy", im, i); err != nil {
			t.Fatalf("healthy tenant stalled at frame %d: %v", i, err)
		}
	}
	if err := r.Drain("healthy"); err != nil {
		t.Fatalf("Drain(healthy): %v", err)
	}
	m, release, err := r.Monitor("healthy")
	if err != nil {
		t.Fatalf("Monitor(healthy): %v", err)
	}
	ingested := m.Ingested()
	release()
	if ingested != len(frames) {
		t.Fatalf("healthy tenant sketched %d frames, want %d", ingested, len(frames))
	}

	select {
	case err := <-wedgedErr:
		if err == nil {
			t.Fatal("wedged tenant's Append never surfaced the restore failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged tenant's producer is still blocked")
	}
}

// TestTenantzPromCarriesNoProcessBlock: /tenantz?format=prom is the
// tenant table alone. It is rendered through a throwaway registry, whose
// process block would report that registry's age as the process uptime
// and repeat /metrics's go_* lines, so no process_* or go_* line may
// appear.
func TestTenantzPromCarriesNoProcessBlock(t *testing.T) {
	r, err := tenant.Open(tenantConfig(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	for i, im := range tenantFrames(4, 6, 6, 3) {
		if err := r.Append("beam-a", im, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain("beam-a"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tenantz?format=prom", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `arams_tenantz_state{tenant="beam-a"}`) {
		t.Fatalf("/tenantz?format=prom omits the tenant:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		name := strings.TrimPrefix(line, "# TYPE ")
		if strings.HasPrefix(name, "process_") || strings.HasPrefix(name, "go_") {
			t.Errorf("/tenantz?format=prom carries %q", line)
		}
	}
}

// TestTenantzExposition locks the /tenantz surface: the prom rendering
// must pass the exposition linter with tenants in several lifecycle
// states, and the JSON/HTML renderings must at least identify every
// tenant.
func TestTenantzExposition(t *testing.T) {
	cfg := tenantConfig(t.TempDir())
	cfg.IdleAfter = time.Nanosecond
	r, err := tenant.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	frames := tenantFrames(8, 6, 6, 3)
	for i, im := range frames {
		if err := r.Append("beam-a", im, i); err != nil {
			t.Fatal(err)
		}
		if err := r.Append("diffract.b", im, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Certificate("beam-a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain("diffract.b"); err != nil {
		t.Fatal(err)
	}
	// Put one tenant to sleep so the table mixes states.
	if err := r.Hibernate("diffract.b"); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}

	h := r.Handler()
	for _, format := range []string{"", "json", "prom"} {
		req := httptest.NewRequest("GET", "/tenantz?format="+format, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.String()
		for _, id := range []string{"beam-a", "diffract.b"} {
			if !strings.Contains(body, id) {
				t.Fatalf("format=%q omits tenant %s:\n%s", format, id, body)
			}
		}
		if format == "prom" {
			if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
				t.Fatalf("/tenantz?format=prom fails lint: %v\n%s", err, body)
			}
			if !strings.Contains(body, `arams_tenantz_cov_bound{tenant="diffract.b"}`) {
				t.Fatalf("hibernated tenant lost its certificate series:\n%s", body)
			}
		}
	}

	// The per-tenant engine series land in the process-wide registry
	// with tenant labels; the full exposition must stay lint-clean with
	// labeled and historical unlabeled variants coexisting.
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("default exposition fails lint with tenant labels: %v", err)
	}
	if !strings.Contains(buf.String(), `arams_engine_frames_total{tenant="beam-a"}`) {
		t.Fatal("per-tenant engine series missing from the default exposition")
	}
}

// TestValidateID pins the tenant-ID alphabet (IDs become checkpoint
// filenames and Prometheus label values).
func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "amo86915", "beam-a", "run_12", "x.y.z"} {
		if err := tenant.ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", "héllo", strings.Repeat("x", 65)} {
		if err := tenant.ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", bad)
		}
	}
}

// TestRaceHammer exercises the registry under -race: 8 tenants with
// concurrent producers, a janitor with an aggressive idle deadline, a
// residency cap of 2 forcing continuous evictions, and concurrent
// /tenantz scrapes and certificate reads. The assertion is simply that
// every frame lands — the race detector and the deadlock timeout do
// the real work.
func TestRaceHammer(t *testing.T) {
	const tenants, perTenant = 8, 48
	cfg := tenantConfig(t.TempDir())
	cfg.MaxResident = 2
	cfg.IdleAfter = time.Millisecond
	cfg.JanitorEvery = time.Millisecond
	cfg.QueueQuota = 8
	r, err := tenant.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	ids := []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	var producers sync.WaitGroup
	for i, id := range ids {
		producers.Add(1)
		go func(i int, id string) {
			defer producers.Done()
			frames := tenantFrames(perTenant, 6, 6, uint64(500+i))
			for f, im := range frames {
				if err := r.Append(id, im, f); err != nil {
					t.Errorf("Append(%s, %d): %v", id, f, err)
					return
				}
			}
		}(i, id)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		h := r.Handler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/tenantz?format=prom", nil))
			r.Tenants()
			r.Certificate(ids[0])
			time.Sleep(time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() {
		producers.Wait()
		for _, id := range ids {
			if err := r.Drain(id); err != nil {
				t.Errorf("Drain(%s): %v", id, err)
			}
		}
		close(stop)
		scraper.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("hammer deadlocked")
	}

	for _, id := range ids {
		cert, err := r.Certificate(id)
		if err != nil {
			t.Fatalf("Certificate(%s): %v", id, err)
		}
		if cert.Rows != perTenant {
			t.Fatalf("tenant %s certified %d rows, want %d", id, cert.Rows, perTenant)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Everything must survive on disk after Close.
	r2, err := tenant.Open(tenantConfig(cfg.Dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if got := len(r2.Tenants()); got != tenants {
		t.Fatalf("recovery scan found %d tenants, want %d", got, tenants)
	}
	for _, id := range ids {
		cert, err := r2.Certificate(id)
		if err != nil {
			t.Fatalf("Certificate(%s) after reopen: %v", id, err)
		}
		if cert.Rows != perTenant {
			t.Fatalf("tenant %s certified %d rows after reopen, want %d", id, cert.Rows, perTenant)
		}
	}
}

// TestHibernateFailureResurrects: when the checkpoint cannot be written
// the registry rebuilds the tenant from the state Suspend gave it, and
// the rebuilt tenant takes that state's storage over — the window
// vectors and each shard's 2ℓ×d sketch buffer, which the failed Save
// only read — so the failed hibernation copies neither: it allocates
// under a quarter of one shard's buffer. The stream carries on as if
// nothing had happened: two more windows later the tenant's state is
// bit-identical to an uninterrupted monitor's, and after a hibernation
// that does succeed (and releases that storage to the pool) and a
// restore, it still is.
func TestHibernateFailureResurrects(t *testing.T) {
	const side, w, failAt = 32, 16, 29
	const mid = failAt + 2*w
	const n = mid + w
	frames := tenantFrames(n, side, side, 178)
	pcfg := tenantPipeline()
	bufBytes := 8 * 2 * pcfg.Sketch.Ell0 * side * side
	control := pipeline.NewMonitor(pcfg, w)
	defer control.Engine().Close()
	var want [][]byte
	for i, im := range frames {
		control.Ingest(im, i)
		if i+1 == mid || i+1 == n {
			b, err := ckpt.Marshal(control.State())
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
	}

	// The hibernation directory sits below the test's own, so it can be
	// taken away and put back (a chmod would not stop a root test run).
	dir := filepath.Join(t.TempDir(), "hibernated")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	r, err := tenant.Open(tenantConfig(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	appendFrames := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := r.Append("xpp456", frames[i], i); err != nil {
				t.Fatalf("Append frame %d: %v", i, err)
			}
		}
	}
	appendFrames(0, failAt)
	if err := r.Drain("xpp456"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	herr := r.Hibernate("xpp456")
	runtime.ReadMemStats(&after)
	if herr == nil {
		t.Fatal("Hibernate into a missing directory succeeded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(bufBytes/4) {
		t.Errorf("the failed hibernation allocated %d B; want under %d (a quarter of one shard's sketch buffer): its state was copied, not handed over", got, bufBytes/4)
	}
	if infos := r.Tenants(); len(infos) != 1 || infos[0].State != tenant.Resident {
		t.Fatalf("after the failed hibernation: %+v, want xpp456 resident", infos)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	appendFrames(failAt, mid)
	if got := stateBytes(t, r, "xpp456"); !bytes.Equal(got, want[0]) {
		t.Fatal("two windows after the resurrection the tenant's state differs from an uninterrupted monitor's")
	}
	if err := r.Hibernate("xpp456"); err != nil {
		t.Fatalf("Hibernate after resurrection: %v", err)
	}
	appendFrames(mid, n)
	if got := stateBytes(t, r, "xpp456"); !bytes.Equal(got, want[1]) {
		t.Fatal("failed hibernation → resurrection → hibernate → restore changed the monitor state bytes")
	}
}

// withDeadline fails the test if f has not returned within d — the
// registry's shutdown and sweep loops must terminate even when every
// hibernation write fails.
func withDeadline(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// failingRegistry opens a registry whose two tenants are resident and
// drained, then takes the hibernation directory away, so every
// checkpoint write fails from here on. restore puts it back; cleanup
// does too, then closes the registry, so a loop that never returned
// still ends with the test.
func failingRegistry(t *testing.T, cfg func(*tenant.Config)) (r *tenant.Registry, restore func()) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "hibernated")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c := tenantConfig(dir)
	if cfg != nil {
		cfg(&c)
	}
	r, err := tenant.Open(c)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, im := range tenantFrames(8, 6, 6, 179) {
		for _, id := range []string{"a1", "b2"} {
			if err := r.Append(id, im, i); err != nil {
				t.Fatalf("Append %s frame %d: %v", id, i, err)
			}
		}
	}
	if err := r.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	restore = func() {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		restore()
		r.Close()
	})
	return r, restore
}

func requireResident(t *testing.T, r *tenant.Registry, when string) {
	t.Helper()
	for _, inf := range r.Tenants() {
		if inf.State != tenant.Resident {
			t.Fatalf("%s: tenant %s is %v, want resident", when, inf.ID, inf.State)
		}
	}
}

// TestCloseWithFailingHibernationReturns: Close tries each tenant once.
// A failed write resurrects the tenant resident with its old activity
// clock; picking it again would retry forever. Close must return the
// first error and leave every tenant resident, with its stream intact.
func TestCloseWithFailingHibernationReturns(t *testing.T) {
	r, _ := failingRegistry(t, nil)
	var err error
	withDeadline(t, 5*time.Second, "Close", func() { err = r.Close() })
	if err == nil {
		t.Fatal("Close into a missing directory reported success")
	}
	requireResident(t, r, "after the failed Close")
	for _, inf := range r.Tenants() {
		if inf.Ingests != 8 {
			t.Fatalf("tenant %s holds %d frames after the failed Close, want 8", inf.ID, inf.Ingests)
		}
	}
}

// TestSweepWithFailingHibernationReturns: an idle sweep tries each
// tenant once and counts only the hibernations that succeeded; the next
// sweep, with the directory back, puts everyone to sleep.
func TestSweepWithFailingHibernationReturns(t *testing.T) {
	r, restore := failingRegistry(t, func(c *tenant.Config) { c.IdleAfter = time.Minute })
	var n int
	withDeadline(t, 5*time.Second, "Sweep", func() { n = r.Sweep(time.Now().Add(time.Hour)) })
	if n != 0 {
		t.Fatalf("Sweep into a missing directory reports %d hibernations, want 0", n)
	}
	requireResident(t, r, "after the failed Sweep")
	restore()
	if n := r.Sweep(time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("Sweep with the directory back hibernated %d tenants, want 2", n)
	}
}

// TestHibernateCyclesRecycleWindow is the allocation half of the
// ownership rule: a d = 4096 tenant whose whole window turns over
// between hibernations hands its window vectors and its sketch buffer
// back to the vector pool after each Save, the next restore decodes
// into them and takes them over, and its ingest and evictions recycle
// through the same pool, so a cycle allocates the checkpoint's
// bookkeeping but no window vector and no sketch buffer.
func TestHibernateCyclesRecycleWindow(t *testing.T) {
	const side, window, cycles = 64, 64, 6
	const d = side * side
	frames := tenantFrames(window, side, side, 181)
	c := tenantConfig(t.TempDir())
	c.Window = window
	c.Pipeline.Shards = 1
	r, err := tenant.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cycle := func() {
		for i, im := range frames {
			if err := r.Append("mfx", im, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Hibernate("mfx"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / (cycles * window)
	// In float32 window vectors (4·d B) per frame: 0.03–0.10 measured,
	// 2.7–2.9 under -race, whose sync.Pool drops a quarter of its puts —
	// the free lists' copies among them. A cycle that decodes or copies
	// the window or the sketch comes to 2.2 (3.2 under -race).
	limit := 0.25
	if raceEnabled {
		limit = 3.5
	}
	if perFrame > limit*4*d {
		t.Errorf("hibernate→restore cycles allocate %.0f B per frame; want at most %.0f (%.2f float32 window vectors)",
			perFrame, limit*4*d, limit)
	}
}
