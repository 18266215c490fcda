package netsim

import (
	"fmt"
	"math/bits"
)

// Interner maps NodeIDs to small dense indices, handed out in first-sight
// order and never recycled, so per-node protocol state can live in flat
// slices instead of maps. It is one open-addressing table: linear probing
// from a Fibonacci hash of the id, at most ¾ full, so its size follows the
// number of ids interned, not their range. A router that has heard 74 of
// 2 000 vehicles holds 128 slots, and the V2I uplink's synthetic external
// addresses (whose bases validate up to 1<<30) cost what a vehicle's id
// costs.
//
// The zero value is an empty interner ready for use.
type Interner struct {
	slots []internSlot // len 0 or a power of two ≥ internMinSlots
	shift uint8        // 32 − log2(len(slots)): the hash's top bits index
	n     int32        // ids interned so far = the next index
}

// internSlot is one table entry; x is the index + 1, and 0 marks an empty
// slot.
type internSlot struct{ id, x int32 }

// internMinSlots is the table's first size.
const internMinSlots = 8

// slot returns the first slot to probe for id: the top bits of id × ⌊2³²/φ⌋.
func (in *Interner) slot(id int32) uint {
	return uint(uint32(id) * 0x9E3779B9 >> in.shift)
}

// Index returns id's index, or -1 when it has not been interned. It never
// allocates.
func (in *Interner) Index(id NodeID) int32 {
	k := int32(id)
	slots := in.slots
	if len(slots) == 0 || NodeID(k) != id {
		return -1
	}
	mask := uint(len(slots) - 1)
	for i := in.slot(k); ; i++ {
		s := slots[i&mask]
		if s.x == 0 {
			return -1
		}
		if s.id == k {
			return s.x - 1
		}
	}
}

// Intern returns id's index, assigning the next one on first sight; isNew
// tells the caller to grow its per-index state. It panics when id does not
// fit in int32: no validated spec hands out such an id.
func (in *Interner) Intern(id NodeID) (x int32, isNew bool) {
	if x := in.Index(id); x >= 0 {
		return x, false
	}
	if NodeID(int32(id)) != id {
		panic(fmt.Sprintf("netsim: node id %d does not fit the interner's int32 keys", id))
	}
	if 4*int(in.n+1) > 3*len(in.slots) {
		in.grow()
	}
	x = in.n
	in.n++
	in.put(internSlot{int32(id), x + 1})
	return x, true
}

// grow doubles the table (or makes its first internMinSlots) and reinserts
// every slot with the index it already holds.
func (in *Interner) grow() {
	old := in.slots
	size := max(internMinSlots, 2*len(old))
	in.slots = make([]internSlot, size)
	in.shift = uint8(32 - bits.Len(uint(size-1)))
	for _, s := range old {
		if s.x != 0 {
			in.put(s)
		}
	}
}

// put stores s in the first empty slot of its probe sequence; the table
// has room and does not hold s.id.
func (in *Interner) put(s internSlot) {
	mask := uint(len(in.slots) - 1)
	i := in.slot(s.id)
	for in.slots[i].x != 0 {
		i = (i + 1) & mask
	}
	in.slots[i] = s
}
