package sim

import (
	"math/rand"
	"testing"
)

// TestPagesMatchesSlice: random Appends and writes through At, against a
// plain slice given the same calls, compared element by element every few
// hundred calls and at the end. An index that reaches the wrong slot (a
// page number or an offset miscomputed) shows as two indices sharing one.
func TestPagesMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p Pages[int64]
		var ref []int64
		compare := func(step int) {
			t.Helper()
			if p.Len() != int32(len(ref)) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, p.Len(), len(ref))
			}
			for i, want := range ref {
				if got := *p.At(int32(i)); got != want {
					t.Fatalf("seed %d step %d: element %d is %d, want %d", seed, step, i, got, want)
				}
			}
		}
		for step := 0; step < 5000; step++ {
			v := rng.Int63()
			if len(ref) == 0 || rng.Intn(4) == 0 {
				p.Append(v)
				ref = append(ref, v)
			} else {
				i := rng.Intn(len(ref))
				*p.At(int32(i)) = v
				ref[i] = v
			}
			if step%250 == 0 {
				compare(step)
			}
		}
		compare(5000)
	}
}

// TestPagesPointersStable: growing never moves an element, so a pointer
// from At still reaches it after 1 000 further Appends, in both directions.
func TestPagesPointersStable(t *testing.T) {
	var p Pages[setItem]
	for i := range int32(37) {
		p.Append(setItem{prev: i})
	}
	first, mid, last := p.At(0), p.At(17), p.At(36)
	for i := range int32(1000) {
		p.Append(setItem{prev: 37 + i})
	}
	for _, c := range []struct {
		i   int32
		ptr *setItem
	}{{0, first}, {17, mid}, {36, last}} {
		if got := p.At(c.i); got != c.ptr || got.prev != c.i {
			t.Fatalf("element %d moved: At = %p (prev %d), first taken at %p", c.i, got, got.prev, c.ptr)
		}
		c.ptr.next = 100 + c.i
		if p.At(c.i).next != 100+c.i {
			t.Fatalf("a write through element %d's old pointer did not reach it", c.i)
		}
	}
}

// TestPagesAllocations: n Appends allocate ceil(n/16) pages and whatever
// the slice of page pointers costs to grow, one pointer at a time, and
// nothing else: no element is ever copied into new storage.
func TestPagesAllocations(t *testing.T) {
	p := new(Pages[setItem])
	for _, n := range []int{1, 15, 16, 17, 64, 75, 300, 1000} {
		pages := (n + pageLen - 1) / pageLen
		var ptrs []*[pageLen]setItem // the page pointers grow as this does
		grows := 0
		for range pages {
			if len(ptrs) == cap(ptrs) {
				grows++
			}
			ptrs = append(ptrs, nil)
		}
		got := testing.AllocsPerRun(20, func() {
			*p = Pages[setItem]{}
			for range n {
				p.Append(setItem{})
			}
		})
		if want := float64(pages + grows); got != want {
			t.Fatalf("%d appends: %v allocations, want %d pages + %d pointer-slice growths", n, got, pages, grows)
		}
	}
}
