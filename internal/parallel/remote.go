package parallel

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"arams/internal/audit"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// Remote merge legs: the one place a merge can fail. Folding
// in-process sketches is infallible (merge.go); what can be lost is a
// *fetch* — snapshotting a shard backend that may live on the far side
// of a TCP connection — and the failure modes are the network's: dial
// failures, timeouts, mid-frame disconnects, checksum mismatches. The
// transport owns recovery: a fabric Remote reconnects, restores and
// replays, and degrades to a bit-exact local sketcher rather than
// return a transient error, so the merge fetches each leg once and
// drops the legs whose fetch still fails, journaling the coverage loss. Because
// FD sketches are mergeable summaries, the surviving legs still merge
// into a sketch whose certificate bound holds for exactly the streams
// they cover.

var (
	obsRemoteLegs     = obs.Default().Counter("arams_parallel_remote_legs_total")
	obsRemoteLegsLost = obs.Default().Counter("arams_parallel_remote_legs_lost_total")
	obsRemoteFetchSec = obs.Default().Histogram("arams_parallel_remote_fetch_seconds")
)

// RemoteLeg is one fetchable input of a remote merge: typically a
// shard backend's snapshot call. Fetch is called exactly once and must
// have done its own recovery: its error drops the leg. It must return a
// sketch the merge may consume — a clone or a freshly decoded copy,
// never a live sketch — because the survivors are folded in place and
// every one but the result is then released to the mat vector pool, as
// is a fetch rejected as non-finite. (nil, nil) means the shard exists
// but has absorbed no rows yet — an empty leg, skipped without counting
// as a fault. parent is the leg's remote_leg span context, so a
// trace-propagating transport (the fabric Remote) can parent its RPC
// spans — and the worker's shipped span records — under the leg that
// caused them; other fetches ignore it.
type RemoteLeg struct {
	Name  string
	Fetch func(parent obs.SpanContext) (*sketch.FrequentDirections, error)
}

// FaultClass buckets a remote-leg error by the recovery it admits.
type FaultClass int

const (
	// FaultNone: no error.
	FaultNone FaultClass = iota
	// FaultTransient: timeouts, resets, refused connections, torn
	// streams — a reconnect to a recovered peer may succeed.
	FaultTransient
	// FaultCorrupt: the bytes arrived but failed validation (checksum
	// mismatch, undecodable state, non-finite sketch).
	FaultCorrupt
	// FaultFatal: the backend is closed or the caller canceled — no
	// recovery can succeed.
	FaultFatal
)

// String names the class for spans and journal events.
func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultCorrupt:
		return "corrupt"
	case FaultFatal:
		return "fatal"
	default:
		return "FaultClass(" + strconv.Itoa(int(c)) + ")"
	}
}

// ErrBackendClosed is returned by shard backends whose Close has been
// called; Classify maps it (and context cancellation) to FaultFatal so
// a shutdown never burns reconnects.
var ErrBackendClosed = errors.New("parallel: shard backend closed")

// errNotFinite is the validation failure for a fetched sketch whose
// buffer holds NaN or Inf.
var errNotFinite = errors.New("parallel: fetched sketch is not finite")

// classifier lets transports annotate their errors with an explicit
// fault class; Classify honors the innermost annotation on the chain.
type classifier interface{ FaultClass() FaultClass }

// ClassifiedError wraps an error with an explicit FaultClass so a
// transport (e.g. internal/fabric) can say how a fault may be recovered
// — a fatal one never is — and label it in spans and journal events,
// without parallel importing the transport's error vocabulary.
type ClassifiedError struct {
	Class FaultClass
	Err   error
}

func (e *ClassifiedError) Error() string          { return e.Class.String() + ": " + e.Err.Error() }
func (e *ClassifiedError) Unwrap() error          { return e.Err }
func (e *ClassifiedError) FaultClass() FaultClass { return e.Class }

// AsFault annotates err with a fault class (nil stays nil).
func AsFault(class FaultClass, err error) error {
	if err == nil {
		return nil
	}
	return &ClassifiedError{Class: class, Err: err}
}

// Classify buckets an error from a remote leg. Explicit annotations
// (AsFault) win; otherwise closed/canceled errors are fatal and
// everything else defaults to transient — the worst a
// misclassification costs is a wasted reconnect, whereas classifying a
// recoverable fault as fatal gives up on a peer that could recover.
func Classify(err error) FaultClass {
	if err == nil {
		return FaultNone
	}
	var c classifier
	if errors.As(err, &c) {
		return c.FaultClass()
	}
	switch {
	case errors.Is(err, ErrBackendClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, net.ErrClosed):
		return FaultFatal
	case errors.Is(err, errNotFinite):
		return FaultCorrupt
	case errors.Is(err, io.ErrUnexpectedEOF):
		// A frame torn mid-read: the connection died, not the data.
		return FaultTransient
	default:
		return FaultTransient
	}
}

// LegStatus is one leg's fetch accounting.
type LegStatus struct {
	Name string
	// Class is the classification of the fetch error (FaultNone on
	// success).
	Class FaultClass
	Err   error
	// Empty marks a leg that fetched successfully but had no sketch
	// yet.
	Empty bool
	// Certificate is the fetched sketch's own error-bound statement
	// (zero for empty or lost legs); Compose over the surviving legs'
	// certificates is the conservative pre-merge bound the merged
	// sketch must dominate.
	Certificate audit.Certificate
}

// RemoteReport summarizes a MergeRemote call.
type RemoteReport struct {
	Legs      []LegStatus
	Survivors int
	Dropped   int
	// Composed is audit.Compose over the surviving legs' certificates:
	// the certificate bound for the concatenation of every covered
	// stream, available even before the merge folds them.
	Composed audit.Certificate
}

// Degraded reports whether any leg was dropped — the merged sketch
// covers only the surviving legs' streams.
func (r RemoteReport) Degraded() bool { return r.Dropped > 0 }

// MergeRemote fetches every leg once, concurrently, validates each
// fetched sketch, drops the legs whose fetch errs or returns a
// non-finite sketch (degrading to the surviving legs, with a journal
// event and a flight-recorder trigger per lost leg), and merges the
// survivors like MergeSketches with TreeMerge — except in place, since
// it owns what it fetched. The fetch spans (remote_leg, one per leg)
// and the merge parent under the given trace context.
//
// The fetched sketches are merged in leg order, so for infallible
// fetches the result is bit-identical to MergeSketches over the same
// inputs — the engine's local and remote reconcile paths share one
// deterministic fold.
func MergeRemote(legs []RemoteLeg, parent obs.SpanContext) (*sketch.FrequentDirections, Stats, RemoteReport) {
	rep := RemoteReport{Legs: make([]LegStatus, len(legs))}
	if len(legs) == 0 {
		return nil, Stats{}, rep
	}
	sp := obs.StartSpanIn(parent, "merge_remote",
		obs.L("legs", strconv.Itoa(len(legs))))
	defer sp.End()

	fetched := make([]*sketch.FrequentDirections, len(legs))
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fetched[i], rep.Legs[i] = fetchLeg(sp.Context(), legs[i])
		}(i)
	}
	wg.Wait()

	fds := make([]*sketch.FrequentDirections, 0, len(legs))
	certs := make([]audit.Certificate, 0, len(legs))
	for i := range rep.Legs {
		st := &rep.Legs[i]
		switch {
		case st.Err != nil:
			rep.Dropped++
			obsRemoteLegsLost.Inc()
			sp.SetAttr("lost_"+st.Name, st.Class.String())
			audit.Default().Record(audit.KindRemoteLegLost,
				"remote merge leg dropped; degrading to surviving legs",
				audit.A("leg", float64(i)),
				audit.A("class", float64(st.Class)))
			obs.Default().FlightTrigger("remote_leg_lost")
		case st.Empty:
			// No rows on this shard yet: nothing to merge, nothing lost.
		default:
			rep.Survivors++
			fds = append(fds, fetched[i])
			certs = append(certs, st.Certificate)
		}
	}
	rep.Composed = audit.Compose(certs...)
	if len(fds) == 0 {
		return nil, Stats{}, rep
	}
	g, stats := mergeOwned(fds, TreeMerge, sp.Context())
	return g, stats, rep
}

// fetchLeg fetches one leg under its remote_leg span and validates what
// arrived: a fetched sketch holding NaN or Inf is released and the leg
// counts as lost.
func fetchLeg(parent obs.SpanContext, leg RemoteLeg) (*sketch.FrequentDirections, LegStatus) {
	st := LegStatus{Name: leg.Name}
	sp := obs.StartSpanIn(parent, "remote_leg", obs.L("leg", leg.Name))
	defer sp.End()
	obsRemoteLegs.Inc()
	t0 := time.Now()
	defer func() { obsRemoteFetchSec.Observe(time.Since(t0).Seconds()) }()

	fd, err := leg.Fetch(sp.Context())
	if err == nil && fd != nil && !fd.Finite() {
		fd.Release() // ours, like every fetch
		err = errNotFinite
	}
	if err != nil {
		st.Err, st.Class = err, Classify(err)
		sp.SetAttr("error", err.Error())
		sp.SetAttr("lost", "true")
		sp.SetAttr("class", st.Class.String())
		return nil, st
	}
	if fd == nil {
		st.Empty = true
	} else {
		st.Certificate = audit.FromSketch(fd)
	}
	return fd, st
}
