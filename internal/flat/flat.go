// Package flat is an open-addressing hash map from two-word keys for hot
// paths that must stop allocating once warm. It grows only when its live
// entries pass three quarters of its slots, and Clear keeps the slots, so
// refilling it after Clear with no more entries than it held before never
// allocates, whatever the keys. A built-in map of more than about a
// thousand entries is a directory of tables that each split under their
// own load, which depends on the keys and the map's random hash seed, so
// refilling one can allocate.
package flat

// Map maps (k1, k2) to a V. The zero Map is empty and ready to use.
type Map[V any] struct {
	slots []slot[V]
	used  int
	shift uint // 64 - log2(len(slots))
}

type slot[V any] struct {
	k1, k2 uint64
	v      V
	full   bool
}

// find returns the slot of (k1, k2): its entry, or the empty slot where it
// would go. The table must have slots.
func (m *Map[V]) find(k1, k2 uint64) *slot[V] {
	mask := uint64(len(m.slots) - 1)
	h := (k1*0x9e3779b97f4a7c15 + k2) * 0xbf58476d1ce4e5b9
	for i := h >> m.shift; ; i = (i + 1) & mask {
		if s := &m.slots[i]; !s.full || s.k1 == k1 && s.k2 == k2 {
			return s
		}
	}
}

// Get returns the value of (k1, k2) and whether there is one.
func (m *Map[V]) Get(k1, k2 uint64) (V, bool) {
	if m.used == 0 {
		var zero V
		return zero, false
	}
	s := m.find(k1, k2)
	return s.v, s.full
}

// Put sets the value of (k1, k2).
func (m *Map[V]) Put(k1, k2 uint64, v V) {
	if 4*(m.used+1) > 3*len(m.slots) {
		m.grow()
	}
	s := m.find(k1, k2)
	if !s.full {
		m.used++
	}
	*s = slot[V]{k1: k1, k2: k2, v: v, full: true}
}

// grow doubles the slots (64 at first) and re-inserts every entry.
func (m *Map[V]) grow() {
	old := m.slots
	n, shift := 64, uint(64-6)
	if len(old) > 0 {
		n, shift = 2*len(old), m.shift-1
	}
	m.slots, m.shift = make([]slot[V], n), shift
	for _, s := range old {
		if s.full {
			*m.find(s.k1, s.k2) = s
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.used }

// Clear removes every entry, keeping the slots.
func (m *Map[V]) Clear() {
	clear(m.slots)
	m.used = 0
}
