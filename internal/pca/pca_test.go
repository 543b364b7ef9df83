package pca

import (
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/sketch"
	"arams/internal/synth"
)

func TestProjectShapes(t *testing.T) {
	g := rng.New(1)
	x := mat.RandGaussian(20, 10, g)
	basis := mat.RandOrthonormalCols(10, 3, g).T() // 3×10 orthonormal rows
	p := NewProjector(basis)
	z := p.Project(x)
	if r, c := z.Dims(); r != 20 || c != 3 {
		t.Fatalf("Project shape %d×%d", r, c)
	}
	if p.K() != 3 {
		t.Fatalf("K=%d", p.K())
	}
}

// TestProjectRowMatchesProject: ProjectRows over float32 rows that
// share no backing array gives Project's bits for the float64 matrix
// the rows widen to.
func TestProjectRowMatchesProject(t *testing.T) {
	g := rng.New(2)
	x := mat.RandGaussian(5, 8, g)
	rows := make([][]float32, x.RowsN)
	for i := range rows {
		rows[i] = make([]float32, x.ColsN)
		for j, v := range x.Row(i) {
			rows[i][j] = float32(v)
			x.Set(i, j, float64(rows[i][j]))
		}
	}
	p := NewProjector(mat.RandOrthonormalCols(8, 2, g).T())
	if !p.ProjectRows(rows).Equal(p.Project(x), 0) {
		t.Fatal("ProjectRows differs from Project of the widened rows")
	}
}

func TestProjectReconstructRoundtrip(t *testing.T) {
	// Data in the basis's row space reconstructs exactly.
	ds := synth.Generate(synth.Params{N: 30, D: 20, Rank: 4, Decay: synth.Exponential, Seed: 3})
	basis := ds.V.T() // 4×20
	p := NewProjector(basis)
	z := p.Project(ds.A)
	xh := mat.Mul(z, basis)
	if !xh.Equal(ds.A, 1e-9) {
		t.Fatal("in-subspace data did not roundtrip")
	}
}

func TestExplainedVariance(t *testing.T) {
	ds := synth.Generate(synth.Params{N: 50, D: 25, Rank: 5, Decay: synth.Exponential, Seed: 4})
	fd := sketch.NewFrequentDirections(10, 25, sketch.Options{})
	fd.AppendMatrix(ds.A)
	p := NewProjector(fd.Basis(5))
	ev := p.ExplainedVariance(ds.A)
	if len(ev) != 5 {
		t.Fatalf("got %d fractions", len(ev))
	}
	var total float64
	for i, f := range ev {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %d = %v out of range", i, f)
		}
		if i > 0 && f > ev[i-1]+1e-9 {
			t.Fatalf("explained variance not descending: %v", ev)
		}
		total += f
	}
	// Rank-5 data with a 5-vector basis captures nearly everything.
	if total < 0.999 {
		t.Fatalf("total explained variance %v, want ~1", total)
	}
}

func TestExplainedVarianceZeroData(t *testing.T) {
	g := rng.New(5)
	basis := mat.RandOrthonormalCols(6, 2, g).T()
	p := NewProjector(basis)
	ev := p.ExplainedVariance(mat.New(4, 6))
	for _, f := range ev {
		if f != 0 {
			t.Fatalf("zero data explained variance %v", ev)
		}
	}
}

func TestProjectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty basis did not panic")
		}
	}()
	NewProjector(mat.New(0, 5))
}

func TestProjectDimMismatchPanics(t *testing.T) {
	g := rng.New(6)
	p := NewProjector(mat.RandOrthonormalCols(8, 2, g).T())
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	p.Project(mat.New(3, 9))
}
