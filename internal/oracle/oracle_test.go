package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"arams/internal/audit"
	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/fabric"
	"arams/internal/fabric/fabrictest"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/pipeline"
	"arams/internal/sketch"
	"arams/internal/tenant"
	"arams/internal/umap"
)

// mode is one way of running the stream: a monitor over local shards,
// a monitor over fabric workers on loopback, or a tenant of a registry.
type mode struct {
	name   string
	shards int
	fabric bool
	tenant bool
}

var modes = []mode{
	{name: "serial", shards: 1},
	{name: "sharded", shards: 2},
	{name: "fabric", shards: 2, fabric: true},
	{name: "tenant1", shards: 1, tenant: true},
	{name: "tenant2", shards: 2, tenant: true},
}

const (
	seeds     = 20
	window    = 12
	latent    = 3
	id        = "amo" // the tenant under test
	neighbour = "cxi" // the tenant whose frame evicts it under the cap
)

// remoteCfg fails fast: a stalled or corrupted RPC costs half a second,
// and two failed reconnects degrade the shard to its local fallback.
var remoteCfg = fabric.RemoteConfig{
	DialTimeout:       500 * time.Millisecond,
	OpTimeout:         500 * time.Millisecond,
	HeartbeatEvery:    -1,
	ReconnectAttempts: 2,
	ReconnectBackoff:  2 * time.Millisecond,
}

// TestOracle runs every seed's sequence in every mode. A failing
// sequence is shrunk, and the minimal one is printed with its seed.
func TestOracle(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg, seq := generate(seed)
				err := run(m, cfg, seq, t.TempDir())
				if err == nil {
					continue
				}
				min := shrink(seq, func(q []step) bool { return run(m, cfg, q, t.TempDir()) != nil })
				t.Fatalf("%s, seed %d: %v\nshrunk to %d steps, failing with: %v\n%s",
					m.name, seed, err, len(min), run(m, cfg, min, t.TempDir()), format(min))
			}
		})
	}
}

// system is one mode's monitor or registry under test, beside its
// fault-free twin (a plain monitor over local shards fed the same
// batches) and the model: the frames the engine must have accepted.
type system struct {
	mode     mode
	cfg      pipeline.Config
	twin     *pipeline.Monitor
	mon      *pipeline.Monitor // monitor modes
	reg      *tenant.Registry  // tenant modes
	tcfg     tenant.Config
	admitted bool // the tenant has been sent a frame
	workers  []*fabric.Worker
	proxy    *fabrictest.Proxy // in front of worker 1
	accepted []frame
	bounded  int // accepted frames when the bound last held; the twin's sketch is unchanged since
}

// run drives seq through a fresh system in mode m and checks it after
// every step; the first violation is returned.
func run(m mode, scfg sketch.Config, seq []step, dir string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	s, err := open(m, scfg, dir)
	if err != nil {
		return err
	}
	defer s.close()
	for i, st := range seq {
		if err := s.do(st); err != nil {
			return fmt.Errorf("step %d (%v): %w", i, st, err)
		}
		if err := s.check(); err != nil {
			return fmt.Errorf("after step %d (%v): %w", i, st, err)
		}
	}
	return nil
}

func open(m mode, scfg sketch.Config, dir string) (*system, error) {
	s := &system{mode: m, cfg: pipeline.Config{
		Sketch: scfg, LatentDim: latent, Shards: m.shards, FrameBudget: -1,
		UMAP: umap.Config{NNeighbors: 4, NEpochs: 5, Seed: 1}, MinPts: 3,
	}}
	s.twin = pipeline.NewMonitor(s.cfg, window)
	if m.tenant {
		s.tcfg = tenant.Config{Dir: dir, Pipeline: s.cfg, Window: window, MaxResident: 1, Journal: audit.NewJournal(64)}
		var err error
		s.reg, err = tenant.Open(s.tcfg)
		return s, err
	}
	if m.fabric {
		for range m.shards {
			w, err := fabric.NewWorker("127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers = append(s.workers, w)
		}
		p, err := fabrictest.New(s.workers[1].Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.proxy = p
	}
	s.mon = pipeline.NewMonitor(s.monitorCfg(), window)
	return s, nil
}

// monitorCfg is what a monitor under test is built or restored with:
// in fabric mode fresh remotes, to worker 0 directly and to worker 1
// through the proxy, as lclsmon -fabric dials them.
func (s *system) monitorCfg() pipeline.Config {
	cfg := s.cfg
	if s.mode.fabric {
		for _, r := range fabric.DialFleet([]string{s.workers[0].Addr(), s.proxy.Addr()}, cfg.Sketch, remoteCfg) {
			cfg.Backends = append(cfg.Backends, r)
		}
	}
	return cfg
}

func (s *system) close() {
	if s.mon != nil {
		s.mon.Engine().Close()
	}
	if s.reg != nil {
		s.reg.Close()
	}
	s.twin.Engine().Close()
	if s.proxy != nil {
		s.proxy.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// feed sends rows as one batch to the system under test and to the
// twin — through IngestVecs when vecs, else as images (the tenant
// always appends images) — and records the frames the model accepts.
func (s *system) feed(rows []frame, vecs bool) error {
	if len(rows) == 0 {
		return nil
	}
	for _, f := range rows {
		if !slices.ContainsFunc(f.pix, func(x float64) bool { return !finite32(x) }) {
			s.accepted = append(s.accepted, f)
		}
	}
	ingestInto(s.twin, rows, vecs)
	if s.reg == nil {
		ingestInto(s.mon, rows, vecs)
		return nil
	}
	s.admitted = true
	for _, f := range rows {
		if err := s.reg.Append(id, image(f.pix), f.tag); err != nil {
			return err
		}
	}
	return s.reg.Drain(id)
}

func ingestInto(m *pipeline.Monitor, rows []frame, vecs bool) {
	tags := make([]int, len(rows))
	ims := make([]*imgproc.Image, len(rows))
	vs := make([][]float64, len(rows))
	for i, f := range rows {
		tags[i], ims[i], vs[i] = f.tag, image(f.pix), slices.Clone(f.pix)
	}
	if vecs {
		m.Engine().IngestVecs(vs, tags)
	} else {
		m.IngestBatch(ims, tags)
	}
}

func image(pix []float64) *imgproc.Image {
	return &imgproc.Image{W: fw, H: fh, Pix: slices.Clone(pix)}
}

func (s *system) do(st step) error {
	switch st.kind {
	case ingest:
		return s.feed(st.rows, st.alt)
	case readers:
		return s.readers(st.rows)
	case quick, snapshot:
		return s.read(st.kind == snapshot)
	case checkpoint:
		return s.checkpoint()
	case hibernate:
		return s.hibernate(st.alt)
	}
	if err := s.feed(st.rows[:st.cut], false); err != nil {
		return err
	}
	heal, err := s.fault(st)
	if err != nil {
		return err
	}
	err = s.feed(st.rows[st.cut:], false)
	heal()
	return err
}

// fault injects a fault step's fault in fabric mode (other modes have
// no link to break) and returns what heals it.
func (s *system) fault(st step) (heal func(), err error) {
	nothing := func() {}
	if !s.mode.fabric {
		return nothing, nil
	}
	switch {
	case st.kind == kill:
		i := 0
		if st.alt {
			i = 1
		}
		addr := s.workers[i].Addr()
		s.workers[i].Close()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nothing, err
		}
		s.workers[i] = fabric.ServeWorker(ln)
		return nothing, nil
	case st.kind == partition && st.alt:
		s.proxy.SetDelay(2 * time.Millisecond)
		return func() { s.proxy.SetDelay(0) }, nil
	case st.kind == partition:
		s.proxy.Partition(true)
		return func() { s.proxy.Partition(false) }, nil
	case st.alt:
		s.proxy.CloseAfter(2048)
		return func() { s.proxy.CloseAfter(0) }, nil
	}
	s.proxy.CorruptEvery(256)
	return func() { s.proxy.CorruptEvery(0) }, nil
}

// withMonitor runs f on the live monitor under test; a tenant is
// pinned resident (restored first when hibernated) while f runs.
func (s *system) withMonitor(f func(*pipeline.Monitor) error) error {
	if s.reg == nil {
		return f(s.mon)
	}
	m, release, err := s.reg.Monitor(id)
	if err != nil {
		return err
	}
	defer release()
	return f(m)
}

// read takes a snapshot of the system under test and of the twin: the
// tags are the last accepted frames', and the latent projection is the
// twin's bit for bit.
func (s *system) read(full bool) error {
	snap := func(m *pipeline.Monitor) *pipeline.Snapshot {
		if full {
			return m.Snapshot()
		}
		return m.QuickSnapshot()
	}
	want := snap(s.twin)
	if !s.admitted && s.reg != nil {
		return nil
	}
	return s.withMonitor(func(m *pipeline.Monitor) error {
		got := snap(m)
		if (got == nil) != (want == nil) {
			return fmt.Errorf("snapshot is nil: %v, the twin's: %v", got == nil, want == nil)
		}
		if got == nil {
			return nil
		}
		if tags := s.windowTags(); !slices.Equal(got.Tags, tags) {
			return fmt.Errorf("snapshot tags %v, want the last accepted %v", got.Tags, tags)
		}
		if got.Ell != want.Ell || !sameMatrix(got.Latent, want.Latent) {
			return fmt.Errorf("snapshot (ℓ %d) differs from the twin's (ℓ %d)", got.Ell, want.Ell)
		}
		if got.Embedding.RowsN != len(got.Tags) {
			return fmt.Errorf("embedding has %d rows for %d tags", got.Embedding.RowsN, len(got.Tags))
		}
		return nil
	})
}

// restore rebuilds the monitor under test from st.
func (s *system) restore(st *pipeline.MonitorState) error {
	cfg := s.monitorCfg()
	m, err := pipeline.NewMonitorFromState(cfg, st)
	if err != nil {
		for _, b := range cfg.Backends {
			b.Close()
		}
		return err
	}
	s.mon = m
	return nil
}

// checkpoint round-trips the state through the checkpoint codec into a
// fresh monitor. A registry is closed instead — it hibernates its
// tenants — and a new one opens its directory, as after a restart.
func (s *system) checkpoint() error {
	if s.reg != nil {
		err := s.reg.Close()
		s.reg = nil
		if err != nil {
			return err
		}
		s.reg, err = tenant.Open(s.tcfg)
		return err
	}
	b, err := ckpt.Marshal(s.mon.State())
	s.mon.Engine().Close()
	s.mon = nil
	if err != nil {
		return err
	}
	dec, err := ckpt.Unmarshal(b)
	if err != nil {
		return err
	}
	st, ok := dec.(*pipeline.MonitorState)
	if !ok {
		return fmt.Errorf("checkpoint decodes to %T", dec)
	}
	return s.restore(st)
}

// hibernate suspends the monitor and restores from the owning state. A
// tenant is hibernated by the registry, or, when evict, by its
// neighbour's frame pushing the registry past MaxResident 1.
func (s *system) hibernate(evict bool) error {
	if s.reg == nil {
		st, err := s.mon.Suspend()
		s.mon = nil
		if st == nil {
			return err
		}
		return s.restore(st)
	}
	if !s.admitted {
		return nil
	}
	if !evict {
		return s.reg.Hibernate(id)
	}
	one := make([]float64, fw*fh)
	for i := range one {
		one[i] = 1
	}
	if err := s.reg.Append(neighbour, image(one), 0); err != nil {
		return err
	}
	if err := s.reg.Drain(neighbour); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if slices.ContainsFunc(s.reg.Tenants(), func(in tenant.Info) bool { return in.ID == id && in.State == tenant.Hibernated }) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still resident under MaxResident 1: %+v", id, s.reg.Tenants())
		}
	}
}

// readers feeds rows in batches of up to three from this goroutine, the
// engine's one producer, while two readers run until it is done: one
// takes quick and full snapshots (and, on a tenant, certificates); the
// other checks that every State is a consistent cut and, on a monitor,
// holds its last reads' bases and checks that their bits stay put, or,
// on a tenant, hibernates it between reads.
func (s *system) readers(rows []frame) error {
	if len(rows) == 0 {
		return nil
	}
	if err := s.feed(rows[:1], false); err != nil {
		return err
	}
	stop := make(chan struct{})
	ticks := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = s.reader(r, ticks[r], stop)
		}()
	}
	for lo := 1; lo < len(rows) && errs[2] == nil; lo += 3 {
		errs[2] = s.feed(rows[lo:min(lo+3, len(rows))], lo%2 == 0)
		for _, t := range ticks {
			select {
			case t <- struct{}{}:
			default:
			}
		}
	}
	close(stop)
	wg.Wait()
	return errors.Join(errs...)
}

type heldRead struct {
	w    engine.Window
	want []float64
}

// reader reads once, then again after each batch the producer feeds
// (tick), while the producer goes on with the next, until stop.
func (s *system) reader(r int, tick, stop <-chan struct{}) error {
	var held []heldRead
	defer func() {
		for _, h := range held {
			h.w.Release()
		}
	}()
	for i := 0; ; i++ {
		var err error
		switch {
		case r == 0:
			err = s.withMonitor(func(m *pipeline.Monitor) error {
				read := m.QuickSnapshot
				if i%4 == 3 {
					read = m.Snapshot
				}
				if snap := read(); snap != nil && snap.Embedding.RowsN != len(snap.Tags) {
					return errors.New("torn snapshot: embedding and tags disagree")
				}
				return nil
			})
			if err == nil && s.reg != nil {
				_, err = s.reg.Certificate(id)
			}
		case s.reg != nil && i%2 == 1:
			if err = s.reg.Hibernate(id); errors.Is(err, tenant.ErrBusy) {
				err = nil
			}
		default:
			err = s.withMonitor(func(m *pipeline.Monitor) error {
				if err := consistentCut(m.State()); err != nil || s.reg != nil {
					return err
				}
				return holdRead(m.Engine(), &held)
			})
		}
		if err != nil {
			return fmt.Errorf("reader %d: %w", r, err)
		}
		select {
		case <-stop:
			return nil
		case <-tick:
		}
	}
}

// consistentCut: a State sees every counted frame sketched (the sampler
// keeps every row of the engine's one-row batches) and no more frames
// in its window than it counted.
func consistentCut(st *pipeline.MonitorState) error {
	rows := 0
	for _, ss := range st.Shards {
		if ss != nil {
			rows += ss.FD.Seen
		}
	}
	if rows != st.Ingests || len(st.Frames) > st.Ingests {
		return fmt.Errorf("torn state: %d ingests, %d window frames, %d sketched rows", st.Ingests, len(st.Frames), rows)
	}
	return nil
}

// holdRead reads the window, keeps the last three reads unreleased, and
// checks that every held basis still has the bits it was handed.
func holdRead(e *engine.Engine, held *[]heldRead) error {
	if w := e.ReadWindow(latent, obs.SpanContext{}); w.Basis != nil {
		*held = append(*held, heldRead{w, slices.Clone(w.Basis.Data[:w.Basis.RowsN*w.Basis.ColsN])})
	}
	if len(*held) > 3 {
		(*held)[0].w.Release()
		*held = (*held)[1:]
	}
	for _, h := range *held {
		if !slices.Equal(h.w.Basis.Data[:len(h.want)], h.want) {
			return errors.New("a held basis changed under later reads")
		}
	}
	return nil
}

// check holds the oracle's invariants after a step: the system under
// test has the twin's state and certificate bit for bit, its stream
// count and window are the model's, and its certificate bounds the
// exact covariance error of the accepted rows.
func (s *system) check() error {
	if s.reg != nil && !s.admitted {
		return nil
	}
	var cert audit.Certificate
	var st *pipeline.MonitorState
	var err error
	if s.reg == nil {
		cert, st = s.mon.Engine().Certificate(), s.mon.State()
	} else {
		// The certificate first: a hibernated tenant answers from its
		// checkpoint, without a restore.
		if cert, err = s.reg.Certificate(id); err != nil {
			return err
		}
		err = s.withMonitor(func(m *pipeline.Monitor) error { st = m.State(); return nil })
		if err != nil {
			return err
		}
	}
	if err := sameState(st, s.twin.State()); err != nil {
		return fmt.Errorf("state differs from the twin's: %w", err)
	}
	if c, tc := untimed(cert), untimed(s.twin.Engine().Certificate()); c != tc {
		return fmt.Errorf("certificate %+v, the twin's %+v", c, tc)
	}
	n := len(s.accepted)
	if st.Ingests != n || cert.Rows != n {
		return fmt.Errorf("%d frames ingested, certificate covers %d rows; the model accepted %d", st.Ingests, cert.Rows, n)
	}
	last := s.accepted[max(0, n-window):]
	if len(st.Frames) != len(last) {
		return fmt.Errorf("window holds %d frames, want %d", len(st.Frames), len(last))
	}
	for i, f := range st.Frames {
		if f.Tag != last[i].tag || !slices.EqualFunc(f.Vec, last[i].pix, func(a float32, b float64) bool { return a == float32(b) }) {
			return fmt.Errorf("window frame %d (tag %d) is not accepted frame %d", i, f.Tag, last[i].tag)
		}
	}
	if n == s.bounded {
		return nil
	}
	s.bounded = n
	a := mat.New(n, fw*fh)
	for i, f := range s.accepted {
		copy(a.Row(i), f.pix)
	}
	if mass := a.FrobeniusNormSq(); math.Abs(cert.FrobMass-mass) > 1e-9*(1+mass) {
		return fmt.Errorf("certificate energy %g, want ‖A‖_F² = %g", cert.FrobMass, mass)
	}
	if exact := sketch.CovErr(a, stacked(st)); !(exact <= cert.CovBound()+1e-12*cert.FrobMass) {
		return fmt.Errorf("exact covariance error %g exceeds the composed bound %g", exact, cert.CovBound())
	}
	return nil
}

func (s *system) windowTags() []int {
	var tags []int
	for _, f := range s.accepted[max(0, len(s.accepted)-window):] {
		tags = append(tags, f.tag)
	}
	return tags
}

// sameState compares two states bit for bit: counters, window frames,
// and each shard's encoded sketch, sampler RNG position included.
func sameState(a, b *pipeline.MonitorState) error {
	if a.Ingests != b.Ingests || a.Window != b.Window || len(a.Frames) != len(b.Frames) || len(a.Shards) != len(b.Shards) {
		return fmt.Errorf("%d ingests, window %d of %d frames, %d shards; the twin: %d, %d of %d, %d",
			a.Ingests, len(a.Frames), a.Window, len(a.Shards), b.Ingests, len(b.Frames), b.Window, len(b.Shards))
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		if fa.Tag != fb.Tag || !slices.EqualFunc(fa.Vec, fb.Vec, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
			return fmt.Errorf("window frame %d differs", i)
		}
	}
	for i := range a.Shards {
		if (a.Shards[i] == nil) != (b.Shards[i] == nil) {
			return fmt.Errorf("shard %d is empty on one side only", i)
		}
		if a.Shards[i] == nil {
			continue
		}
		ab, err := ckpt.Marshal(a.Shards[i])
		if err != nil {
			return err
		}
		bb, err := ckpt.Marshal(b.Shards[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(ab, bb) {
			return fmt.Errorf("shard %d state bytes differ", i)
		}
	}
	return nil
}

func sameMatrix(a, b *mat.Matrix) bool {
	return a.RowsN == b.RowsN && a.ColsN == b.ColsN &&
		slices.EqualFunc(a.Data, b.Data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// stacked stacks every buffer row of every shard of st, widened to
// float64: the Σ BᵢᵀBᵢ a composed certificate describes, with no merge.
func stacked(st *pipeline.MonitorState) *mat.Matrix {
	var rows [][]float64
	for _, ss := range st.Shards {
		if ss == nil {
			continue
		}
		fd := &ss.FD
		for i := 0; i < len(fd.Kept); i += fd.D {
			rows = append(rows, fd.Kept[i:i+fd.D])
		}
		for i := 0; i < len(fd.Incoming); i += fd.D {
			row := make([]float64, fd.D)
			mat.Widen(row, fd.Incoming[i:i+fd.D])
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return mat.New(1, fw*fh)
	}
	return mat.FromRows(rows)
}

func untimed(c audit.Certificate) audit.Certificate {
	c.Time = time.Time{}
	return c
}
