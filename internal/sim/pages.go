package sim

// Pages is a growable array of T stored in fixed pages of pageLen elements:
// per-index state (a route entry, a timer-set item) that a protocol grows
// one index at a time and never shrinks. Append allocates a page only when
// the last one is full, and growing never copies an element, so an element
// never moves: a pointer from At stays valid for the life of the array, and
// the only garbage growth leaves is the small slice of page pointers. The
// shape is the slab's (Bonwick, "The Slab Allocator", USENIX Summer 1994):
// fixed-size chunks allocated on demand.
//
// pageLen is 16 so that a page of either user fills an exact Go size class:
// 16 × 32 B route entries are 512 B, 16 × 24 B timer-set items 384 B. The
// zero Pages is empty and ready to use; a Pages must not be copied.
type Pages[T any] struct {
	pages []*[pageLen]T
	n     int32
}

const (
	pageShift = 4
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Len reports the number of elements appended so far.
func (p *Pages[T]) Len() int32 { return p.n }

// At returns a pointer to element i, which must be below Len.
func (p *Pages[T]) At(i int32) *T { return &p.pages[i>>pageShift][i&pageMask] }

// Append adds v as element Len.
func (p *Pages[T]) Append(v T) {
	if p.n == int32(len(p.pages))*pageLen {
		p.pages = append(p.pages, new([pageLen]T))
	}
	*p.At(p.n) = v
	p.n++
}
