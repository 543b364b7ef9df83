//go:build amd64 && !purego

package mat

import (
	"syscall"
	"testing"
	"unsafe"

	"arams/internal/rng"
)

// The assembly takes slices and derives its own count, so the bound it
// must respect is min(len(...)) of what it was handed. A write past it
// shows up in the padded comparisons of simd_amd64_test.go; a read past
// it shows up nowhere — unless the next byte is unreadable. Here every
// operand ends (or begins) flush against a PROT_NONE page, so a load or
// store one element out of bounds in either direction faults.

// guardedArena hands out float64 slices from anonymous mappings fenced
// by inaccessible pages.
type guardedArena struct {
	t        *testing.T
	mappings [][]byte
}

func newGuardedArena(t *testing.T) *guardedArena {
	a := &guardedArena{t: t}
	t.Cleanup(func() {
		for _, m := range a.mappings {
			if err := syscall.Munmap(m); err != nil {
				t.Errorf("munmap: %v", err)
			}
		}
	})
	return a
}

// floats returns n float64s that end exactly at an inaccessible page
// (atEnd) or begin exactly after one.
func (a *guardedArena) floats(n int, atEnd bool, g *rng.RNG) []float64 {
	page := syscall.Getpagesize()
	body := (8*n + page - 1) / page * page
	if body == 0 {
		body = page
	}
	m, err := syscall.Mmap(-1, 0, page+body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		a.t.Skipf("mmap: %v", err)
	}
	a.mappings = append(a.mappings, m)
	for _, fence := range [][]byte{m[:page], m[page+body:]} {
		if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
			a.t.Skipf("mprotect: %v", err)
		}
	}
	start := page
	if atEnd {
		start = page + body - 8*n
	}
	if n == 0 {
		return nil
	}
	s := unsafe.Slice((*float64)(unsafe.Pointer(&m[start])), n)
	fill(s, g, false)
	return s
}

func TestVectorKernelsStayInsideTheirOperands(t *testing.T) {
	requireAVX2(t)
	g := rng.New(700)
	var c [16]float64
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 1023, 1025} {
		for _, atEnd := range []bool{true, false} {
			arena := newGuardedArena(t)
			// Operands longer than n sit on the far side of the fence, so
			// only the kernel's own count keeps it off the page.
			long := func(extra int) []float64 { return arena.floats(n+extra, atEnd, g) }
			exact := func() []float64 { return arena.floats(n, atEnd, g) }
			for _, op := range [][3][]float64{
				{exact(), exact(), exact()},
				{long(3), exact(), long(1)},
				{exact(), long(2), long(5)},
				{long(1), long(4), exact()},
			} {
				for _, kern := range elementKernels {
					kern.run(0.6, 0.8, op[0], op[1], op[2])
				}
			}
			pack := arena.floats(4*n, atEnd, g)
			pack4AVX2(pack, exact(), exact(), exact(), exact())
			dotPack4x4AVX2(&c, exact(), exact(), exact(), exact(), pack)
			// A pack with room for more than the rows hold, and rows
			// longer than the pack has room for.
			pack4AVX2(arena.floats(4*n+7, atEnd, g), exact(), long(2), exact(), long(9))
			pack4AVX2(pack, long(1), long(2), long(3), long(4))
			dotPack4x4AVX2(&c, long(4), long(3), long(2), long(1), pack)
			dotPack4x4AVX2(&c, exact(), long(3), exact(), long(1), arena.floats(4*n+3, atEnd, g))
		}
	}
}
