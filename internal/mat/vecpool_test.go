package mat

import (
	"sync"
	"testing"
	"unsafe"
)

// TestGetVecZeroed pins the pool contract the zero-copy ingest path
// relies on: GetVec always returns a zero-filled slice of exactly the
// requested length, even when it recycles a backing array that a
// previous user scribbled on.
func TestGetVecZeroed(t *testing.T) {
	v := GetVec(64)
	if len(v) != 64 {
		t.Fatalf("GetVec(64) returned length %d", len(v))
	}
	for i := range v {
		v[i] = float64(i + 1)
	}
	PutVec(v)

	// A smaller request never reuses the larger array: the pool is
	// keyed by capacity, and whatever it returns reads all-zero.
	w := GetVec(16)
	if len(w) != 16 || cap(w) != 16 {
		t.Fatalf("GetVec(16) returned length %d, capacity %d", len(w), cap(w))
	}
	for i, x := range w {
		if x != 0 {
			t.Fatalf("recycled vec not zeroed at %d: %v", i, x)
		}
	}
	PutVec(w)

	// A larger request than anything pooled must still be satisfied.
	u := GetVec(1 << 12)
	if len(u) != 1<<12 {
		t.Fatalf("GetVec(4096) returned length %d", len(u))
	}
	for i, x := range u {
		if x != 0 {
			t.Fatalf("fresh vec not zeroed at %d: %v", i, x)
		}
	}
	PutVec(u)

	// Zero-length puts are dropped, zero-length gets are legal.
	PutVec(nil)
	if z := GetVec(0); len(z) != 0 {
		t.Fatalf("GetVec(0) returned length %d", len(z))
	}
}

// TestVecPoolReleaseKeyedByCapacity pins the keying: a sketch-buffer-sized
// array put back must never come out as a window vector, and every
// vector GetVec returns has capacity exactly its length, recycled or
// not, so PutVec files it back under the size it was asked for.
func TestVecPoolReleaseKeyedByCapacity(t *testing.T) {
	const d, ell = 96, 4
	for i := 0; i < 8; i++ {
		PutVec(make([]float64, 2*ell*d))
		PutVec(make([]float64, d, 2*d)) // filed under 2d, not d
	}
	for i := 0; i < 16; i++ {
		for _, n := range []int{d, 2 * ell * d, 2 * d} {
			v := GetVec(n)
			if len(v) != n || cap(v) != n {
				t.Fatalf("GetVec(%d) returned length %d, capacity %d", n, len(v), cap(v))
			}
			for j, x := range v {
				if x != 0 {
					t.Fatalf("GetVec(%d) not zeroed at %d: %v", n, j, x)
				}
				v[j] = 1
			}
			PutVec(v)
		}
	}
}

// TestVecPoolConcurrent shakes the pool under -race: concurrent
// get/scribble/put cycles must never hand the same backing array to
// two goroutines at once, neither from a per-P class nor from a big
// class's shared free list.
func TestVecPoolConcurrent(t *testing.T) {
	for _, size := range []struct{ n, iters int }{{96, 200}, {bigMin, 10}} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(tag float64) {
				defer wg.Done()
				for iter := 0; iter < size.iters; iter++ {
					v := GetVec(size.n)
					for i := range v {
						if v[i] != 0 {
							t.Errorf("goroutine %v: dirty vec of %d at %d", tag, size.n, i)
							return
						}
						v[i] = tag
					}
					for i := range v {
						if v[i] != tag {
							t.Errorf("goroutine %v: vec of %d shared while held (saw %v)", tag, size.n, v[i])
							return
						}
					}
					PutVec(v)
				}
			}(float64(g + 1))
		}
		wg.Wait()
	}
}

// TestVecPoolsKeepTheirElementType: float32 and float64 vectors share one
// pool implementation but not its storage. A float32 array the byte
// size of a float64 request never comes back out of GetVec, a float64
// array never out of GetVec32, and GetVec32 keeps GetVec's contract —
// zeroed, capacity exactly the length asked for.
func TestVecPoolsKeepTheirElementType(t *testing.T) {
	const n = 48
	put := map[unsafe.Pointer]string{}
	for i := 0; i < 8; i++ {
		v32 := make([]float32, 2*n) // 8n bytes, like a float64 vector of n
		v32[0] = 1
		put[unsafe.Pointer(&v32[0])] = "float32"
		PutVec32(v32)
		v64 := make([]float64, n/2) // 4n bytes, like a float32 vector of n
		v64[0] = 1
		put[unsafe.Pointer(&v64[0])] = "float64"
		PutVec(v64)
	}
	for i := 0; i < 16; i++ {
		v, w := GetVec(n), GetVec32(n)
		if len(v) != n || cap(v) != n || len(w) != n || cap(w) != n {
			t.Fatalf("GetVec(%d) has length %d, capacity %d; GetVec32(%d) has %d, %d", n, len(v), cap(v), n, len(w), cap(w))
		}
		if from := put[unsafe.Pointer(&v[0])]; from == "float32" {
			t.Fatal("GetVec handed out a float32 array")
		}
		if from := put[unsafe.Pointer(&w[0])]; from == "float64" {
			t.Fatal("GetVec32 handed out a float64 array")
		}
		for j := range w {
			if w[j] != 0 {
				t.Fatalf("GetVec32 not zeroed at %d: %v", j, w[j])
			}
			w[j] = 2
		}
		PutVec(v)
		PutVec32(w)
	}
}
