package sim

// holdList is an intrusive doubly linked list over items kept in Pages,
// in the order the items were last linked: the bookkeeping of a
// constant-hold soft state. When every deadline a table writes is
// now + H for one hold H and no path shortens one, the item linked last
// has the latest deadline, so last-link order is deadline order: the head
// is the earliest deadline, a refresh unlinks its item and links it at
// the tail, and expiry pops from the head while the head is due (Varghese
// & Lauck's scheme 1 for a constant timeout). TimerSet embeds it, and
// HoldList is the face other packages use.
//
// An item is linked (in the list) or unlinked; next is unlinked while it
// is out. Items live in Pages and never move. The list must not be copied
// once used.
type holdList[T any] struct {
	items      Pages[holdItem[T]]
	head, tail int32 // linked items, first linked first; noItem when empty
}

// holdItem is one item: its value and its list neighbours.
type holdItem[T any] struct {
	val        T
	prev, next int32 // next is unlinked while the item is out of the list
}

const (
	noItem   = -1 // no list neighbour
	unlinked = -2 // holdItem.next of an item out of the list
)

// link appends item i at the tail of the list.
func (l *holdList[T]) link(i int32) {
	it := l.items.At(i)
	it.prev, it.next = l.tail, noItem
	if l.tail != noItem {
		l.items.At(l.tail).next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// unlink takes item i out of the list.
func (l *holdList[T]) unlink(i int32) {
	it := l.items.At(i)
	if it.prev != noItem {
		l.items.At(it.prev).next = it.next
	} else {
		l.head = it.next
	}
	if it.next != noItem {
		l.items.At(it.next).prev = it.prev
	} else {
		l.tail = it.prev
	}
	it.next = unlinked
}

// HoldList is a table of soft-state tuples that expire a constant hold
// after their last refresh, kept as one list in refresh order, which is
// deadline order (see holdList). A protocol keeps each tuple's deadline
// where it keeps the tuple, and a HoldList item per tuple holding what
// finds the tuple again: Add a new tuple's item, Refresh it whenever its
// deadline is rewritten, and expire by reading Front while it is due and
// Removing it. Removed items are reused by later Adds, so the list holds
// as many items as tuples were ever live at once, and Len counts the
// items added and not yet removed. Build it with NewHoldList; it must not
// be copied once used.
type HoldList[T any] struct {
	holdList[T]
	free int32 // removed items, chained through prev; noItem when none
	live int32 // items added and not removed
}

// NewHoldList returns an empty list.
func NewHoldList[T any]() HoldList[T] {
	return HoldList[T]{holdList: holdList[T]{head: noItem, tail: noItem}, free: noItem}
}

// Add links a new item holding v at the tail (the latest deadline) and
// returns its index.
func (l *HoldList[T]) Add(v T) int32 {
	i := l.free
	if i != noItem {
		l.free = l.items.At(i).prev
	} else {
		i = l.items.Len()
		l.items.Append(holdItem[T]{})
	}
	l.items.At(i).val = v
	l.link(i)
	l.live++
	return i
}

// At returns a pointer to item i's value.
func (l *HoldList[T]) At(i int32) *T { return &l.items.At(i).val }

// Refresh moves item i to the tail: its deadline was just rewritten to the
// latest.
func (l *HoldList[T]) Refresh(i int32) {
	l.unlink(i)
	l.link(i)
}

// Front reports the item with the earliest deadline, if any.
func (l *HoldList[T]) Front() (int32, bool) { return l.head, l.head != noItem }

// Remove takes item i out of the list for reuse.
func (l *HoldList[T]) Remove(i int32) {
	l.unlink(i)
	l.items.At(i).prev = l.free
	l.free = i
	l.live--
}

// Len reports how many items are in the list.
func (l *HoldList[T]) Len() int { return int(l.live) }
