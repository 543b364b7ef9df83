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

	got, _, rep := MergeRemote(legsFor(fds), obs.SpanContext{})
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

// TestMergeRemoteFatalShortCircuits: a fatal classification (closed
// backend, canceled context) drops the leg after its one fetch.
func TestMergeRemoteFatalShortCircuits(t *testing.T) {
	fds := remoteTestSketches(t, 3)
	legs := legsFor(fds)
	var calls atomic.Int64
	legs[2].Fetch = func(p obs.SpanContext) (*sketch.FrequentDirections, error) {
		calls.Add(1)
		return nil, ErrBackendClosed
	}
	seq := audit.Default().Seq()
	got, _, rep := MergeRemote(legs, obs.SpanContext{})
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

// TestMergeRemoteEmptyAndNilLegs: empty legs ((nil, nil) fetches) are
// skipped without being counted as faults, and zero legs is a clean
// no-op.
func TestMergeRemoteEmptyAndNilLegs(t *testing.T) {
	if got, _, rep := MergeRemote(nil, obs.SpanContext{}); got != nil || rep.Survivors != 0 {
		t.Fatalf("zero legs: got %v, %+v", got, rep)
	}
	fds := remoteTestSketches(t, 2)
	legs := legsFor(fds)
	legs = append(legs, RemoteLeg{Name: "empty",
		Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) { return nil, nil }})
	got, _, rep := MergeRemote(legs, obs.SpanContext{})
	if got == nil || rep.Dropped != 0 || rep.Survivors != 2 {
		t.Fatalf("empty leg mishandled: %+v", rep)
	}
	if !rep.Legs[2].Empty || rep.Legs[2].Err != nil {
		t.Errorf("empty leg status: %+v", rep.Legs[2])
	}
}

// TestQuickMergeRemoteFaultLadder is the property form of the one
// failure model a merge has: for a random row split over 2–8 legs, each
// leg scripted as ok / error / NaN / fatal / empty and fetched exactly
// once, the merge must equal MergeSketches over the ok legs bit for
// bit, account exactly their rows, and certify a bound that holds
// against the exact ‖AᵀA − BᵀB‖₂ over those rows — a dropped leg
// narrows what the certificate covers, never whether it is true.
func TestQuickMergeRemoteFaultLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	const (
		legOK = iota
		legError
		legNaN
		legFatal
		legEmpty
		legScripts
	)
	property := func(seed uint64, nRaw, dRaw, ellRaw, pRaw uint8) bool {
		pp := paramsFrom(seed, nRaw, dRaw, ellRaw, pRaw, 0)
		x := mat.RandGaussian(pp.n, pp.d, pp.g)
		shards := randomShardSplit(x, pp.p, pp.g)
		mk := FDSketcher(pp.ell, sketch.Options{})

		legs := make([]RemoteLeg, len(shards))
		script := make([]int, len(shards))
		calls := make([]atomic.Int64, len(shards))
		var surviving []*sketch.FrequentDirections
		var survivingRows []float64
		for i, shard := range shards {
			fd := mk(shard)
			script[i] = pp.g.Intn(legScripts)
			if script[i] == legOK {
				surviving = append(surviving, fd)
				for r := 0; r < shard.RowsN; r++ {
					survivingRows = append(survivingRows, shard.Row(r)...)
				}
			}
			kind := script[i]
			legs[i] = RemoteLeg{Name: "leg" + strconv.Itoa(i),
				Fetch: func(obs.SpanContext) (*sketch.FrequentDirections, error) {
					calls[i].Add(1)
					switch kind {
					case legError:
						return nil, io.ErrUnexpectedEOF
					case legNaN:
						return poisoned(fd), nil
					case legFatal:
						return nil, ErrBackendClosed
					case legEmpty:
						return nil, nil
					}
					return fd.Clone(), nil
				}}
		}

		got, stats, rep := MergeRemote(legs, obs.SpanContext{})
		dropped := 0
		for i, st := range rep.Legs {
			wantClass := FaultNone
			switch script[i] {
			case legError:
				wantClass = FaultTransient
			case legNaN:
				wantClass = FaultCorrupt
			case legFatal:
				wantClass = FaultFatal
			}
			if wantClass != FaultNone {
				dropped++
			}
			if n := calls[i].Load(); n != 1 || st.Class != wantClass || st.Empty != (script[i] == legEmpty) {
				t.Logf("leg %d (script %d): %d fetches, class %v, empty %v; want 1, %v, %v",
					i, script[i], n, st.Class, st.Empty, wantClass, script[i] == legEmpty)
				return false
			}
		}
		if rep.Survivors != len(surviving) || rep.Dropped != dropped {
			t.Logf("report %d survivors / %d dropped, script says %d survive, %d dropped",
				rep.Survivors, rep.Dropped, len(surviving), dropped)
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
// transient (a wasted reconnect is cheaper than giving up on a peer).
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
