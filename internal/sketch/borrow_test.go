package sketch

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"arams/internal/mat"
)

// stateDigest is the golden digest of an ARAMS state: every count, the
// sketch's rows bit for bit, Σδ, ‖A‖_F² and the RNG positions.
func stateDigest(s ARAMSState) string {
	dg := digest{sha256.New()}
	dg.rng(s.RNG)
	dg.fd(&s.FD)
	dg.rng(s.ProbeRNG)
	dg.u64(uint64(s.Grows))
	return fmt.Sprintf("%x", dg.h.Sum(nil))
}

// TestBorrowedRowsGiveAppendedBits: a sketch that borrows each row's
// float32 copy (ProcessBatchBorrowing) is, bit for bit, the sketch that
// rounds the rows itself (ProcessBatch) — after every batch, through
// the sampler, a rank-adaptive Grow, a TakeState the stream resumes
// from, and one-row and many-row batches. It keeps a borrowed vector
// until its next rotation and no longer: once Rotations passes the
// count a row was appended under, the test overwrites that row's vector
// with NaNs, which would show in every later state if the sketch still
// read it.
func TestBorrowedRowsGiveAppendedBits(t *testing.T) {
	const d = 48
	x := gaussData(400, d, 61)
	for _, cfg := range []Config{
		{Ell0: 6, Beta: 1, Seed: 3},
		{Ell0: 6, Beta: 0.9, Seed: 3},
		{Ell0: 4, Beta: 0.8, Seed: 3, RankAdaptive: true, Eps: 1e-3, Nu: 3},
	} {
		name := fmt.Sprintf("β=%v adaptive=%v", cfg.Beta, cfg.RankAdaptive)
		own, lent := NewARAMS(cfg, d, 0), NewARAMS(cfg, d, 0)
		type borrowed struct {
			row32 []float32
			under int // the rotation count it was appended under
		}
		var out []borrowed
		for lo, b := 0, 0; lo < x.RowsN; b++ {
			n := 1
			if b%3 == 2 {
				n = 7
			}
			batch := x.Rows(lo, min(lo+n, x.RowsN))
			lo += batch.RowsN
			x32 := make([][]float32, batch.RowsN)
			for i := range x32 {
				x32[i] = make([]float32, d)
				mat.Narrow(x32[i], batch.Row(i))
			}
			own.ProcessBatch(batch)
			lent.ProcessBatchBorrowing(batch, x32)
			for _, r := range x32 {
				out = append(out, borrowed{r, lent.FD().Rotations()})
			}
			if fd := lent.FD(); cfg.Beta == 1 && fd.nextZero > fd.ell && &fd.rows[len(fd.rows)-1][0] != &x32[len(x32)-1][0] {
				t.Fatalf("%s: batch %d's last row is a copy, not the vector it was given", name, b)
			}
			if want, got := stateDigest(own.State()), stateDigest(lent.State()); got != want {
				t.Fatalf("%s: after batch %d the borrowing sketch's state differs", name, b)
			}
			if b == 40 {
				// The stream resumes from a taken state, which gathers the
				// borrowed rows into a block of the sketch's own.
				if lent, _ = AdoptARAMSState(lent.TakeState()); lent.FD().lends {
					t.Fatalf("%s: a sketch rebuilt from a taken state still counts as borrowing", name)
				}
			}
			kept := out[:0]
			for _, r := range out {
				if r.under < lent.FD().Rotations() {
					for j := range r.row32 {
						r.row32[j] = float32(math.NaN())
					}
					continue
				}
				kept = append(kept, r)
			}
			out = kept
		}
		if cfg.RankAdaptive && lent.Ell() == cfg.Ell0 {
			t.Errorf("%s: the rank never grew, so no Grow was checked", name)
		}
		if want, got := stateDigest(own.State()), stateDigest(lent.State()); got != want {
			t.Errorf("%s: after the stream the borrowing sketch's state differs", name)
		}
	}
}

// TestBorrowingSketchGivesItsBlockBack: a sketch that borrows its
// float32 rows keeps the ℓ×d float32 block it was built with through
// its first rotation, gives it back at its second and holds none after,
// so the rows it borrows are the only float32 storage it reads; one
// rebuilt from a state gives an adopted block back at its first; TakeState then gathers them into a block
// drawn for the purpose, whole (capacity ℓ·d) so that a restore adopts
// it and the state's owner can hand it back with mat.PutVec32. A Clone
// copies them into a block of its own and borrows nothing.
func TestBorrowingSketchGivesItsBlockBack(t *testing.T) {
	const ell, d = 5, 32
	x := gaussData(3*ell+2, d, 67)
	a := NewARAMS(Config{Ell0: ell, Beta: 1, Seed: 5}, d, 0)
	for i := 0; i < x.RowsN; i++ {
		r := make([]float32, d)
		mat.Narrow(r, x.Row(i))
		a.ProcessBatchBorrowing(x.Rows(i, i+1), [][]float32{r})
	}
	fd := a.FD()
	if fd.Rotations() != 2 || fd.block != nil {
		t.Fatalf("after %d rotations the borrowing sketch holds a float32 block: %v", fd.Rotations(), fd.block != nil)
	}
	early := NewARAMS(Config{Ell0: ell, Beta: 1, Seed: 5}, d, 0)
	for i := 0; i < 2*ell+1; i++ {
		r := make([]float32, d)
		mat.Narrow(r, x.Row(i))
		early.ProcessBatchBorrowing(x.Rows(i, i+1), [][]float32{r})
		if i == 2*ell {
			if early.FD().Rotations() != 1 || early.FD().block == nil {
				t.Fatal("a built sketch gave its block back at its first rotation")
			}
			st := early.TakeState()
			if cap(st.FD.Incoming) != ell*d {
				t.Fatalf("the taken state's float32 rows have capacity %d, want the built block's %d", cap(st.FD.Incoming), ell*d)
			}
			if early, _ = AdoptARAMSState(st); early.FD().block == nil {
				t.Fatal("the restored sketch did not adopt the block")
			}
		}
	}
	for i := 0; i < ell; i++ {
		r := make([]float32, d)
		mat.Narrow(r, x.Row(i))
		early.ProcessBatchBorrowing(x.Rows(i, i+1), [][]float32{r})
	}
	if early.FD().Rotations() != 2 || early.FD().block != nil {
		t.Fatalf("a restored sketch holds an adopted float32 block after its first rotation: %v", early.FD().block != nil)
	}
	c := fd.Clone()
	for j := range c.rows {
		if !c.owns(j) {
			t.Fatalf("clone row %d is not in the clone's own block", j)
		}
	}
	if stateDigest(ARAMSState{FD: c.State()}) != stateDigest(ARAMSState{FD: fd.State()}) {
		t.Error("the clone's state differs from its source's")
	}
	c.Release()
	want := fd.State()
	st := a.TakeState()
	if got := st.FD.Incoming; cap(got) != ell*d || len(got) != len(want.Incoming) {
		t.Fatalf("TakeState's float32 rows have length %d and capacity %d; want %d and %d", len(got), cap(got), len(want.Incoming), ell*d)
	}
	if stateDigest(ARAMSState{FD: st.FD}) != stateDigest(ARAMSState{FD: want}) {
		t.Error("TakeState's gathered rows differ from State's copy")
	}
}

// TestProcessBatchAllocatesNothing: absorbing one row through the
// priority sampler (β < 1), as the engine does for every frame, reuses
// the sampler's heap and its selection and allocates nothing. The
// sketch is wide enough in ℓ that no rotation falls in the count, so no
// pool is involved and the count holds under -race too.
func TestProcessBatchAllocatesNothing(t *testing.T) {
	const ell, d = 64, 16
	x := gaussData(ell, d, 71)
	rows := make([]*mat.Matrix, x.RowsN)
	for i := range rows {
		rows[i] = x.Rows(i, i+1)
	}
	for _, borrow := range []bool{false, true} {
		a := NewARAMS(Config{Ell0: ell, Beta: 0.9, Seed: 5}, d, 0)
		x32 := [][]float32{make([]float32, d)}
		i := 0
		n := testing.AllocsPerRun(ell-2, func() {
			row := rows[i]
			if borrow {
				mat.Narrow(x32[0], row.Row(0))
				a.ProcessBatchBorrowing(row, x32)
			} else {
				a.ProcessBatch(row)
			}
			i++
		})
		if n != 0 || a.FD().Rotations() != 0 {
			t.Errorf("borrowing=%v: a one-row ProcessBatch at β = 0.9 allocates %v times (%d rotations)", borrow, n, a.FD().Rotations())
		}
	}
}
