package netsim

// Interner maps NodeIDs to small dense indices, handed out in first-sight
// order and never recycled, so per-node protocol state can live in flat
// slices instead of maps. It is a hybrid: real node ids are small and
// dense and resolve through a direct slice — no hashing on the per-packet
// path — while ids outside [0, internDirectLimit), the V2I uplink's
// synthetic external addresses (whose bases validate up to 1<<30), fall
// back to a map the steady state never touches.
//
// The zero value is an empty interner ready for use.
type Interner struct {
	direct []int32          // NodeID -> index + 1; 0 = absent
	ext    map[NodeID]int32 // index for ids outside the direct range
	n      int32            // ids interned so far = the next index
}

// internDirectLimit bounds the direct-slice id range.
const internDirectLimit = 1 << 16

// Index returns id's index, or -1 when it has not been interned. It never
// allocates.
func (in *Interner) Index(id NodeID) int32 {
	if i := int(id); i >= 0 && i < len(in.direct) {
		return in.direct[i] - 1
	}
	if id >= 0 && id < internDirectLimit {
		return -1 // inside the direct range but the slice hasn't grown there
	}
	if x, ok := in.ext[id]; ok {
		return x
	}
	return -1
}

// Intern returns id's index, assigning the next one on first sight; isNew
// tells the caller to grow its per-index state.
func (in *Interner) Intern(id NodeID) (x int32, isNew bool) {
	if x := in.Index(id); x >= 0 {
		return x, false
	}
	x = in.n
	in.n++
	if i := int(id); i >= 0 && i < internDirectLimit {
		if i >= len(in.direct) {
			// One allocation to reach i however far, at least doubling so
			// that ids arriving in increasing order stay amortized O(1).
			// The slots past the length were never written: they read 0,
			// absent, until interned.
			if i >= cap(in.direct) {
				grown := make([]int32, len(in.direct), max(i+1, 2*cap(in.direct)))
				copy(grown, in.direct)
				in.direct = grown
			}
			in.direct = in.direct[:i+1]
		}
		in.direct[i] = x + 1
	} else {
		if in.ext == nil {
			in.ext = make(map[NodeID]int32)
		}
		in.ext[id] = x
	}
	return x, true
}
