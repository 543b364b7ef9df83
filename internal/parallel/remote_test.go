package parallel

import (
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"arams/internal/audit"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// remoteTestSketches builds p per-shard FD sketches over one stream
// plus the stream matrix, for remote-merge tests.
func remoteTestSketches(t *testing.T, p int) []*sketch.FrequentDirections {
	t.Helper()
	x := testMatrix(160, 10, 77)
	mk := FDSketcher(6, sketch.Options{})
	shards := SplitRows(x, p)
	fds := make([]*sketch.FrequentDirections, p)
	for i, s := range shards {
		fds[i] = mk(s)
	}
	return fds
}

func legsFor(fds []*sketch.FrequentDirections) []RemoteLeg {
	legs := make([]RemoteLeg, len(fds))
	for i := range fds {
		fd := fds[i]
		legs[i] = RemoteLeg{Name: "leg" + string(rune('a'+i)),
			Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) { return fd.Clone(), nil }}
	}
	return legs
}

// poisoned returns a copy of fd with a NaN row appended — what a torn
// buffer decodes to; Finite rejects it whether or not the row has been
// through a rotation yet.
func poisoned(fd *sketch.FrequentDirections) *sketch.FrequentDirections {
	bad := fd.Clone()
	row := make([]float64, bad.Dim())
	row[0] = math.NaN()
	bad.Append(row)
	return bad
}

// TestMergeRemoteMatchesMergeSketches: with infallible fetches,
// MergeRemote must be bit-identical to MergeSketches over the same
// inputs — the local and remote reconcile paths share one fold.
func TestMergeRemoteMatchesMergeSketches(t *testing.T) {
	fds := remoteTestSketches(t, 4)
	clones := make([]*sketch.FrequentDirections, len(fds))
	for i := range fds {
		clones[i] = fds[i].Clone()
	}
	want, _ := MergeSketches(clones, TreeMerge)

	got, _, rep := MergeRemote(legsFor(fds), Retry{}, obs.SpanContext{})
	if rep.Survivors != 4 || rep.Dropped != 0 {
		t.Fatalf("report: %d survivors, %d dropped, want 4/0", rep.Survivors, rep.Dropped)
	}
	wb, gb := want.Sketch(), got.Sketch()
	for i := range wb.Data {
		if wb.Data[i] != gb.Data[i] {
			t.Fatalf("remote merge diverged from MergeSketches at element %d", i)
		}
	}
	// Composed over all legs must bound the concatenated stream's rows.
	if rep.Composed.Rows != want.Seen() {
		t.Errorf("composed certificate covers %d rows, want %d", rep.Composed.Rows, want.Seen())
	}
}

// TestMergeRemoteRetriesTransient: a leg that fails with a transient
// fault and then succeeds must survive, with the retry accounted.
func TestMergeRemoteRetriesTransient(t *testing.T) {
	fds := remoteTestSketches(t, 3)
	legs := legsFor(fds)
	var calls atomic.Int64
	inner := legs[1].Fetch
	legs[1].Fetch = func(p obs.SpanContext) (*sketch.FrequentDirections, error) {
		if calls.Add(1) == 1 {
			return nil, io.ErrUnexpectedEOF // torn frame: transient
		}
		return inner(p)
	}
	got, _, rep := MergeRemote(legs, Retry{MaxAttempts: 3, Backoff: time.Microsecond}, obs.SpanContext{})
	if got == nil || rep.Dropped != 0 || rep.Survivors != 3 {
		t.Fatalf("transient fault not retried to success: %+v", rep)
	}
	if st := rep.Legs[1]; st.Retries != 1 || st.Attempts != 2 || st.Class != FaultNone {
		t.Errorf("leg accounting: %+v, want 1 retry over 2 attempts", st)
	}
}

// TestMergeRemoteRefetchesCorrupt: corrupt fetches (non-finite sketch,
// checksum-annotated errors) are re-fetched, not trusted and not
// immediately dropped.
func TestMergeRemoteRefetchesCorrupt(t *testing.T) {
	fds := remoteTestSketches(t, 2)
	legs := legsFor(fds)
	var calls atomic.Int64
	inner := legs[0].Fetch
	legs[0].Fetch = func(p obs.SpanContext) (*sketch.FrequentDirections, error) {
		if calls.Add(1) == 1 {
			return poisoned(fds[0]), nil // arrives, but fails validation
		}
		return inner(p)
	}
	got, _, rep := MergeRemote(legs, Retry{MaxAttempts: 2, Backoff: time.Microsecond}, obs.SpanContext{})
	if got == nil || rep.Dropped != 0 {
		t.Fatalf("corrupt fetch not recovered by re-fetch: %+v", rep)
	}
	if !got.Finite() {
		t.Fatal("corrupt sketch leaked into the merge")
	}
	if rep.Legs[0].Retries != 1 {
		t.Errorf("corrupt leg retried %d times, want 1", rep.Legs[0].Retries)
	}
}

// TestMergeRemoteFatalShortCircuits: a fatal classification (closed
// backend, canceled context) must drop the leg without burning the
// remaining attempts.
func TestMergeRemoteFatalShortCircuits(t *testing.T) {
	fds := remoteTestSketches(t, 3)
	legs := legsFor(fds)
	var calls atomic.Int64
	legs[2].Fetch = func(p obs.SpanContext) (*sketch.FrequentDirections, error) {
		calls.Add(1)
		return nil, ErrBackendClosed
	}
	seq := audit.Default().Seq()
	got, _, rep := MergeRemote(legs, Retry{MaxAttempts: 5, Backoff: time.Microsecond}, obs.SpanContext{})
	if got == nil {
		t.Fatal("merge of survivors returned nil")
	}
	if calls.Load() != 1 {
		t.Errorf("fatal leg fetched %d times, want exactly 1", calls.Load())
	}
	if rep.Dropped != 1 || rep.Survivors != 2 || !rep.Degraded() {
		t.Fatalf("report: %+v, want 1 dropped / 2 survivors", rep)
	}
	if rep.Legs[2].Class != FaultFatal {
		t.Errorf("leg class %v, want fatal", rep.Legs[2].Class)
	}
	// Coverage loss is journaled and the composed certificate shrinks to
	// the survivors.
	if evs := audit.Default().Query(audit.Query{Kind: audit.KindRemoteLegLost, SinceSeq: seq}); len(evs) == 0 {
		t.Error("dropped leg not journaled")
	}
	if rep.Composed.Rows != got.Seen() {
		t.Errorf("composed certificate covers %d rows, survivors saw %d", rep.Composed.Rows, got.Seen())
	}
}

// TestMergeRemoteLegTimeout: an attempt slower than Retry.LegTimeout is
// abandoned — MergeRemote returns without waiting for the straggler.
func TestMergeRemoteLegTimeout(t *testing.T) {
	fds := remoteTestSketches(t, 2)
	legs := legsFor(fds)
	release := make(chan struct{})
	legs[1].Fetch = func(p obs.SpanContext) (*sketch.FrequentDirections, error) {
		<-release
		return nil, errors.New("too late")
	}
	start := time.Now()
	got, _, rep := MergeRemote(legs,
		Retry{MaxAttempts: 1, LegTimeout: 20 * time.Millisecond}, obs.SpanContext{})
	elapsed := time.Since(start)
	close(release)
	if elapsed > time.Second {
		t.Errorf("merge waited %v for a hung leg, want ~leg timeout", elapsed)
	}
	if got == nil || rep.Dropped != 1 || rep.Survivors != 1 {
		t.Fatalf("hung leg not dropped: %+v", rep)
	}
}

// TestMergeRemoteEmptyAndNilLegs: empty legs ((nil, nil) fetches) are
// skipped without being counted as faults, and zero legs is a clean
// no-op.
func TestMergeRemoteEmptyAndNilLegs(t *testing.T) {
	if got, _, rep := MergeRemote(nil, Retry{}, obs.SpanContext{}); got != nil || rep.Survivors != 0 {
		t.Fatalf("zero legs: got %v, %+v", got, rep)
	}
	fds := remoteTestSketches(t, 2)
	legs := legsFor(fds)
	legs = append(legs, RemoteLeg{Name: "empty",
		Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) { return nil, nil }})
	got, _, rep := MergeRemote(legs, Retry{}, obs.SpanContext{})
	if got == nil || rep.Dropped != 0 || rep.Survivors != 2 {
		t.Fatalf("empty leg mishandled: %+v", rep)
	}
	if !rep.Legs[2].Empty || rep.Legs[2].Err != nil {
		t.Errorf("empty leg status: %+v", rep.Legs[2])
	}
}

// TestQuickMergeRemoteFaultLadder is the property form of the one
// failure model a merge has: for a random row split over 2–8 legs, each
// leg scripted as ok / transient-then-ok / NaN-then-ok / fatal / slower
// than LegTimeout, the merge must equal MergeSketches over the
// surviving legs bit for bit, account exactly the survivors' rows, and
// certify a bound that holds against the exact ‖AᵀA − BᵀB‖₂ over those
// rows — a dropped leg narrows what the certificate covers, never
// whether it is true.
func TestQuickMergeRemoteFaultLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	const (
		legOK = iota
		legTransientThenOK
		legNaNThenOK
		legFatal
		legSlow
		legScripts
	)
	retry := Retry{MaxAttempts: 2, Backoff: time.Microsecond, LegTimeout: 50 * time.Millisecond}
	property := func(seed uint64, nRaw, dRaw, ellRaw, pRaw uint8) bool {
		pp := paramsFrom(seed, nRaw, dRaw, ellRaw, pRaw, 0)
		x := mat.RandGaussian(pp.n, pp.d, pp.g)
		shards := randomShardSplit(x, pp.p, pp.g)
		mk := FDSketcher(pp.ell, sketch.Options{})
		release := make(chan struct{}) // parks the slow legs' abandoned fetches
		defer close(release)

		legs := make([]RemoteLeg, len(shards))
		script := make([]int, len(shards))
		var surviving []*sketch.FrequentDirections
		var survivingRows []float64
		for i, shard := range shards {
			fd := mk(shard)
			script[i] = pp.g.Intn(legScripts)
			if script[i] != legFatal && script[i] != legSlow {
				surviving = append(surviving, fd)
				for r := 0; r < shard.RowsN; r++ {
					survivingRows = append(survivingRows, shard.Row(r)...)
				}
			}
			var calls atomic.Int64
			kind := script[i]
			legs[i] = RemoteLeg{Name: "leg" + strconv.Itoa(i),
				Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) {
					first := calls.Add(1) == 1
					switch {
					case kind == legTransientThenOK && first:
						return nil, io.ErrUnexpectedEOF
					case kind == legNaNThenOK && first:
						return poisoned(fd), nil
					case kind == legFatal:
						return nil, ErrBackendClosed
					case kind == legSlow:
						<-release
						return nil, errors.New("too late")
					}
					return fd.Clone(), nil
				}}
		}

		got, stats, rep := MergeRemote(legs, retry, obs.SpanContext{})
		for i, st := range rep.Legs {
			wantRetries, wantClass := 0, FaultNone
			switch script[i] {
			case legTransientThenOK, legNaNThenOK:
				wantRetries = 1
			case legFatal:
				wantClass = FaultFatal
			case legSlow:
				wantRetries, wantClass = 1, FaultTransient
			}
			if st.Retries != wantRetries || st.Class != wantClass {
				t.Logf("leg %d (script %d): %d retries, class %v; want %d, %v",
					i, script[i], st.Retries, st.Class, wantRetries, wantClass)
				return false
			}
		}
		if rep.Survivors != len(surviving) || rep.Dropped != len(legs)-len(surviving) {
			t.Logf("report %d survivors / %d dropped, script says %d of %d survive",
				rep.Survivors, rep.Dropped, len(surviving), len(legs))
			return false
		}
		want, _ := MergeSketches(surviving, TreeMerge)
		if want == nil || got == nil {
			return want == nil && got == nil
		}
		wb, gb := want.Sketch(), got.Sketch()
		if !reflect.DeepEqual(wb.Data, gb.Data) {
			t.Logf("merged sketch differs from MergeSketches over the %d survivors", len(surviving))
			return false
		}
		rows := len(survivingRows) / pp.d
		if got.Seen() != rows || rep.Composed.Rows != rows || stats.Certificate.Rows != rows {
			t.Logf("rows: sketch %d, composed %d, certificate %d; survivors hold %d",
				got.Seen(), rep.Composed.Rows, stats.Certificate.Rows, rows)
			return false
		}
		if rows == 0 {
			return true
		}
		xs := mat.FromData(rows, pp.d, survivingRows)
		exact := sketch.CovErr(xs, gb)
		if bound := stats.Certificate.CovBound(); exact > bound+certTolerance(stats.Certificate.FrobMass) {
			t.Logf("exact error %v over the surviving rows exceeds the certified bound %v", exact, bound)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestClassify pins the fault taxonomy: explicit annotations win, known
// sentinels map to their class, everything unknown defaults to
// transient (a wasted retry is cheaper than a dropped leg).
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FaultClass
	}{
		{nil, FaultNone},
		{ErrBackendClosed, FaultFatal},
		{errNotFinite, FaultCorrupt},
		{io.ErrUnexpectedEOF, FaultTransient},
		{errors.New("mystery"), FaultTransient},
		{AsFault(FaultCorrupt, errors.New("bad crc")), FaultCorrupt},
		// The annotation wins even over a fatal-looking inner error.
		{AsFault(FaultTransient, ErrBackendClosed), FaultTransient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if AsFault(FaultFatal, nil) != nil {
		t.Error("AsFault(nil) must stay nil")
	}
}
