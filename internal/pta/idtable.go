package pta

// idTable is an open-addressing hash table over (uint64 key, int32 tag)
// pairs, optionally mapping each pair to an int32 value. The solver's
// dense-ID lookups that have no natural slice index — context interning,
// (context, method) pairs under a non-empty context, call-edge
// deduplication, the virtual-dispatch memo — all pack their
// identity into one 64-bit key plus a small tag, so one table type with
// linear probing and no per-entry allocation replaces a family of Go
// maps keyed by pointer structs.
//
// Tags must be >= 1: a zero tag marks an empty slot. Tables are built
// by newIDTable; the zero value is not usable.
type idTable struct {
	keys []uint64
	tags []int32
	vals []int32 // nil for a pure set
	n    int
	mask int
}

// newIDTable returns a table sized for about hint entries; withVals
// selects a map (value per entry) rather than a set.
func newIDTable(hint int, withVals bool) idTable {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	t := idTable{keys: make([]uint64, size), tags: make([]int32, size), mask: size - 1}
	if withVals {
		t.vals = make([]int32, size)
	}
	return t
}

func (t *idTable) slot(key uint64, tag int32) int {
	h := key ^ uint64(tag)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h) & t.mask
}

// find returns the slot holding (key, tag), or the empty slot where it
// would be inserted, and whether it was found.
func (t *idTable) find(key uint64, tag int32) (int, bool) {
	for i := t.slot(key, tag); ; i = (i + 1) & t.mask {
		switch {
		case t.tags[i] == 0:
			return i, false
		case t.keys[i] == key && t.tags[i] == tag:
			return i, true
		}
	}
}

// get returns the value stored for (key, tag).
func (t *idTable) get(key uint64, tag int32) (int32, bool) {
	i, ok := t.find(key, tag)
	if !ok {
		return 0, false
	}
	return t.vals[i], true
}

// insert adds (key, tag) with value v unless present; it reports
// whether the pair was new.
func (t *idTable) insert(key uint64, tag int32, v int32) bool {
	i, ok := t.find(key, tag)
	if ok {
		return false
	}
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
		i, _ = t.find(key, tag)
	}
	t.keys[i], t.tags[i] = key, tag
	if t.vals != nil {
		t.vals[i] = v
	}
	t.n++
	return true
}

// add is insert for a pure set: it reports whether (key, tag) was new.
func (t *idTable) add(key uint64, tag int32) bool { return t.insert(key, tag, 0) }

// grow doubles the table and rehashes every entry.
func (t *idTable) grow() {
	old := *t
	*t = idTable{
		keys: make([]uint64, 2*len(old.keys)),
		tags: make([]int32, 2*len(old.keys)),
		mask: 2*len(old.keys) - 1,
		n:    old.n,
	}
	if old.vals != nil {
		t.vals = make([]int32, len(t.keys))
	}
	for j, tag := range old.tags {
		if tag == 0 {
			continue
		}
		i, _ := t.find(old.keys[j], tag)
		t.keys[i], t.tags[i] = old.keys[j], tag
		if old.vals != nil {
			t.vals[i] = old.vals[j]
		}
	}
}

// pack2 packs two non-negative 32-bit IDs into one table key.
func pack2(hi, lo int) uint64 { return uint64(uint32(hi))<<32 | uint64(uint32(lo)) }

// edgeTab is the duplicate index of one long successor list: an
// open-address table of positions in the list (+1; 0 marks an empty
// slot), probed by hashing the edge. It stores no keys — a probe
// compares against the list itself — so it costs 8–16 bytes per edge,
// and it lives next to the list it indexes rather than in one
// solver-wide table whose probes would miss the cache.
type edgeTab []int32

func edgeHash(e edge, size int) int {
	h := (uint64(uint32(e.to)) | uint64(uint32(e.filter))<<32) * 0x9E3779B97F4A7C15
	return int(h>>32) & (size - 1)
}

// newEdgeTab indexes succ, which must be duplicate-free.
func newEdgeTab(succ []edge) edgeTab {
	size := 32
	for size < 4*len(succ) {
		size <<= 1
	}
	t := make(edgeTab, size)
	for pos, e := range succ {
		i := edgeHash(e, size)
		for t[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		t[i] = int32(pos) + 1
	}
	return t
}

// lookup returns the slot where e is recorded in t (indexing succ), and
// whether it is there; when absent, the slot is where it would go.
func (t edgeTab) lookup(succ []edge, e edge) (int, bool) {
	i := edgeHash(e, len(t))
	for t[i] != 0 {
		if succ[t[i]-1] == e {
			return i, true
		}
		i = (i + 1) & (len(t) - 1)
	}
	return i, false
}
