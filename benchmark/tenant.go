package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/tenant"
)

// tenantSet is one registry with its tenants' feeders.
type tenantSet struct {
	reg     *tenant.Registry
	journal *audit.Journal
	ids     []string
	feeds   []*feeder
	dir     string
}

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

// setupTenants is the multi-tenant set-up: open a registry over a fresh
// directory, spread the warm-up frames over the tenants, drain, and
// take the first Snapshot on tenant 0. Nothing in the registry runs on
// a timer: hibernation is explicit.
func setupTenants(w workload, pools [][]*imgproc.Image, dir string) (*tenantSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ts := &tenantSet{journal: audit.NewJournal(audit.DefaultJournalCap), dir: dir}
	reg, err := tenant.Open(tenant.Config{
		Dir:        dir,
		Pipeline:   pipelineConfig(w),
		Window:     w.Window,
		NewAuditor: func(string) *audit.Auditor { return newAuditor() },
		Journal:    ts.journal,
		// IdleAfter, JanitorEvery, MaxResident stay zero: no deadlines,
		// no janitor, no residency pressure.
	})
	if err != nil {
		return nil, err
	}
	ts.reg = reg
	for i, pool := range pools {
		id := tenantID(i)
		ts.ids = append(ts.ids, id)
		ts.feeds = append(ts.feeds, newFeeder(pool))
		ims, tags := ts.feeds[i].next(w.Warmup / len(pools))
		for j, im := range ims {
			if err := reg.Append(id, im, tags[j]); err != nil {
				return nil, err
			}
		}
	}
	if err := reg.DrainAll(); err != nil {
		return nil, err
	}
	m, release, err := reg.Monitor(ts.ids[0])
	if err != nil {
		return nil, err
	}
	m.Snapshot()
	release()
	return ts, nil
}

// sameStream reports whether two monitor states hold the same stream
// state — window, counters, every shard sketch and RNG position —
// compared through the canonical encoding. The audit journal is left
// out: a restore journals itself, so a rebuilt monitor is one event
// ahead of the checkpoint by design.
func sameStream(a, b *pipeline.MonitorState) bool {
	strip := func(s *pipeline.MonitorState) []byte {
		c := *s
		c.Audit, c.Journal = nil, nil
		out, err := ckpt.Marshal(&c)
		if err != nil {
			return nil
		}
		return out
	}
	x, y := strip(a), strip(b)
	return x != nil && bytes.Equal(x, y)
}

// runTenants runs the tenant_churn workload.
func runTenants(w workload, seed uint64, cycles int, trace bool, d dirs, res *result) error {
	genStart := time.Now()
	pools := make([][]*imgproc.Image, w.Tenants)
	for i := range pools {
		kind := beam
		if i >= w.Tenants/2 {
			kind = diffraction
		}
		pools[i] = genPool(kind, w.Size, w.Pool, seed+uint64(i))
	}
	genT := time.Since(genStart)
	heapBase := liveHeapMB()

	// timedSetup opens a fresh registry over its own directory; discard
	// closes one that is not the measured instance.
	var setups samples
	timedSetup := func() (*tenantSet, error) {
		t0 := time.Now()
		ts, err := setupTenants(w, pools, filepath.Join(d.tmp, fmt.Sprintf("reg%d", len(setups))))
		setups.add(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return ts, nil
	}
	discard := func(ts *tenantSet) error {
		if err := ts.reg.Close(); err != nil {
			return fmt.Errorf("closing set-up registry: %w", err)
		}
		return os.RemoveAll(ts.dir)
	}
	var ts *tenantSet
	for i := 0; i < setupBefore; i++ {
		if ts != nil {
			if err := discard(ts); err != nil {
				return err
			}
		}
		var err error
		if ts, err = timedSetup(); err != nil {
			return err
		}
	}
	reg := ts.reg
	// Every cycle starts from hibernated tenants.
	for _, id := range ts.ids {
		if err := reg.Hibernate(id); err != nil {
			return fmt.Errorf("initial hibernate: %w", err)
		}
	}

	cfg := pipelineConfig(w)
	var rec *recorder
	var rp *replayer
	var direct *pipeline.Monitor
	var directFeed *feeder
	if trace {
		rec = newRecorder(cycles * 128)
		// The direct monitor is tenant 0's stream without the registry:
		// the baseline the pump's cost is measured against, and the
		// monitor whose layers the replay drives.
		dw := w
		dw.Tenants = 0
		direct, directFeed, _ = setupMonitor(dw, pools[0])
		warm, _ := newFeeder(pools[0]).next(w.Warmup)
		rp = newReplayer(dw, warm, rec)
	}

	hib := obs.Default().Counter("arams_tenant_hibernations_total")
	rst := obs.Default().Counter("arams_tenant_restores_total")
	hib0, rst0 := hib.Value(), rst.Value()
	rot0 := 0
	for _, id := range ts.ids {
		c, err := reg.Certificate(id)
		if err != nil {
			return err
		}
		rot0 += c.Rotations
	}
	journal0 := ts.journal.Seq()
	// extraSetup is one of the later set-ups: a fresh registry, discarded.
	// Closing it hibernates its tenants, and the counters are global.
	extraSetup := func() error {
		h, r := hib.Value(), rst.Value()
		extra, err := timedSetup()
		if err != nil {
			return err
		}
		if err := discard(extra); err != nil {
			return err
		}
		hib0, rst0 = hib0+hib.Value()-h, rst0+rst.Value()-r
		return nil
	}

	var cs cycleStats
	var pump samples // ms per frame, Append+Drain, tenant 0 (the direct monitor's pool)
	wallStart := time.Now()
	for c := 0; c < cycles; c++ {
		rec.setCycle(c)
		clock := startClock()
		rec.begin("cycle")
		t0 := time.Now()
		for ti, id := range ts.ids {
			ims, tags := ts.feeds[ti].next(w.S)

			var release func()
			var err error
			cs.restore.add(timed(rec, "tenant.Monitor", func() { _, release, err = reg.Monitor(id) }))
			res.op(err == nil, "Registry.Monitor(%s): %v", id, err)
			if err != nil {
				continue
			}
			release()

			pumpT := timed(rec, "tenant.AppendDrain", func() {
				err = nil
				for j, im := range ims {
					if aerr := reg.Append(id, im, tags[j]); aerr != nil && err == nil {
						err = aerr
					}
				}
				if derr := reg.Drain(id); derr != nil && err == nil {
					err = derr
				}
			})
			if ti == 0 {
				pump.add(pumpT / time.Duration(w.S))
			}
			res.op(err == nil, "Append/Drain(%s): %v", id, err)

			if ti == c%w.Tenants {
				// One tenant per cycle serves the operator view, pinned.
				// Snapshot first: a restored monitor has no cached UMAP
				// model, so a QuickSnapshot before it would be a full refit.
				m, release, err := reg.Monitor(id)
				res.op(err == nil, "Registry.Monitor(%s) for snapshot: %v", id, err)
				if err == nil {
					cs.snap.add(timedSnapshot(res, rec, "Snapshot", m.Snapshot, w.Window))
					cs.quick.add(timedSnapshot(res, rec, "QuickSnapshot", m.QuickSnapshot, w.Window))
					release()
				}
			}

			cs.ckptT.add(timed(rec, "tenant.Hibernate", func() { err = reg.Hibernate(id) }))
			res.op(err == nil, "Registry.Hibernate(%s): %v", id, err)
		}
		cs.cycle.add(time.Since(t0))
		rec.end() // cycle
		cs.stopClock(clock)

		if rp != nil {
			// Tenant 0's pool, straight into a monitor.
			ims, tags := directFeed.next(w.S)
			timed(rec, "ingest", func() { ingestBatches(direct, ims, tags, rec, nil) })
			path := filepath.Join(d.tmp, "direct.ckpt")
			st, _, err := checkpoint(direct, path, rec)
			res.op(err == nil, "direct monitor ckpt.Save: %v", err)
			rm, loaded, _, rerr := restore(cfg, true, path, rec)
			checkRestored(res, rm, loaded, rerr, directFeed.fed, path, false)
			rp.replay(direct, ims[:rp.frames()], st)
		}

		if setupDue(len(setups), c, cycles) {
			if err := extraSetup(); err != nil {
				return err
			}
		}
	}
	for len(setups) < setupRuns {
		if err := extraSetup(); err != nil {
			return err
		}
	}
	res.WallS = time.Since(wallStart).Seconds()
	rec.setCycle(-1)
	res.Cycles = cycles
	res.Frames = cycles * w.FramesPerCycle()
	hibN, rstN := hib.Value()-hib0, rst.Value()-rst0
	journalN := ts.journal.Seq() - journal0

	cs.setup = setups

	cs.reportEndToEnd(res, w.FramesPerCycle())

	// Output checks and exact quality per tenant, untimed. Every tenant
	// is hibernated here, so its file is the checkpoint it restores from.
	var covRel, tight float64
	var fileBytes int64
	rotN := -rot0
	for ti, id := range ts.ids {
		file, ferr := os.ReadFile(filepath.Join(ts.dir, "tenant-"+id+".ckpt"))
		loaded, lerr := ckpt.Unmarshal(file)
		fileBytes += int64(len(file))
		var again []byte
		if lerr == nil {
			again, lerr = ckpt.Marshal(loaded)
		}
		res.op(ferr == nil && lerr == nil && bytes.Equal(again, file),
			"%s: checkpoint does not re-marshal byte-identical (%v %v)", id, ferr, lerr)
		m, release, err := reg.Monitor(id)
		res.op(err == nil, "final Registry.Monitor(%s): %v", id, err)
		if err != nil {
			continue
		}
		ls, _ := loaded.(*pipeline.MonitorState)
		res.op(ls != nil && sameStream(m.State(), ls), "%s: restored monitor differs from its checkpoint", id)
		q := exactQuality(res, id, m, ts.feeds[ti], cfg.Pre)
		release()
		covRel += q.covRel / float64(w.Tenants)
		tight += q.tightness / float64(w.Tenants)
		rotN += q.cert.Rotations
	}
	res.set("cov_err_rel", covRel, 0)
	// The checks above left every tenant resident, which is the
	// registry's largest footprint; hibernated tenants hold no heap.
	res.set("heap_live_mb", liveHeapMB()-heapBase, 0)
	runtime.KeepAlive(pools) // the baseline reading includes the pools

	if trace {
		nGen := w.Tenants * w.Pool
		res.set("lcls.gen_us_per_frame", float64(genT.Microseconds())/float64(nGen), 0)
		res.set("sketch.rotations", float64(rotN), 0)
		res.set("sketch.ell_final", sketchEll, 0)
		res.set("engine.reconciles", float64(direct.Engine().Reconciles()), 0)
		res.set("engine.shard_busy_skew", busySkew(direct.Engine().ShardBusy()), 0)
		res.set("audit.cert_tightness", tight, 0)
		res.set("audit.journal_events", float64(journalN), 0)
		res.set("tenant.hibernations", hibN, 0)
		res.set("tenant.restores", rstN, 0)
		res.set("tenant.ckpt_bytes", float64(fileBytes)/float64(w.Tenants), 0)
		res.setP25("tenant.hibernate_ms", cs.ckptT, 1)
		res.setP25("tenant.restore_ms", cs.restore, 1)
		if err := reportTraced(res, w, rec, rp, cs, d.out); err != nil {
			return err
		}
		res.set("tenant.pump_us_per_frame", p25(pump)*1e3-res.Metrics["engine.ingest_batch_us_per_frame"].Value, len(pump))
	}
	if direct != nil {
		if err := direct.Engine().Close(); err != nil {
			return err
		}
	}
	res.op(hibN == float64(cycles*w.Tenants), "hibernations = %v, want %d", hibN, cycles*w.Tenants)
	return reg.Close()
}
