// Package bitset provides sparse, growable bit sets used to represent
// points-to sets over densely numbered abstract objects.
//
// The hot loop of a subset-based points-to analysis is repeated
// union-with-difference: propagate the part of a source set that the
// destination has not seen yet. Set is tuned for that pattern: it offers
// UnionInto, which unions src into dst and simultaneously collects the
// newly added bits.
//
// A set stores only the window of 64-bit words between its lowest and
// highest populated word (plus growth slack), starting at a word offset.
// Most points-to sets hold a handful of objects whose IDs lie close
// together but far from zero, so a window costs a word or two where a
// zero-based array would cost one word per 64 smaller IDs.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64 // words[i] holds bits [(off+i)*64, (off+i+1)*64)
	off   int32    // word index of words[0]
	count int32    // cached population count
}

// New returns an empty set with capacity hint n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits set.
func (s *Set) Len() int { return int(s.count) }

// Words returns the number of 64-bit words backing the set — the
// quantity resource budgets meter to bound live points-to memory.
func (s *Set) Words() int { return len(s.words) }

// IsEmpty reports whether no bits are set.
func (s *Set) IsEmpty() bool { return s.count == 0 }

// end is one past the word index of the last backing word.
func (s *Set) end() int { return int(s.off) + len(s.words) }

// word returns the word at absolute word index w (0 outside the window).
func (s *Set) word(w int) uint64 {
	w -= int(s.off)
	if uint(w) >= uint(len(s.words)) {
		return 0
	}
	return s.words[w]
}

// Contains reports whether bit i is set. Negative i is always false.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	return s.word(i/wordBits)&(1<<(uint(i)%wordBits)) != 0
}

// cover extends the window to include absolute word indices [lo, hi).
// An empty window is re-based at lo, reusing its capacity; growth at
// either end is geometric (the window at least doubles), and growth
// toward zero keeps slack below the data so a set filled from high IDs
// downward does not copy itself once per word.
func (s *Set) cover(lo, hi int) {
	n := len(s.words)
	if n == 0 {
		if cap(s.words) >= hi-lo {
			s.words = s.words[:hi-lo]
			clear(s.words)
		} else {
			s.words = make([]uint64, hi-lo)
		}
		s.off = int32(lo)
		return
	}
	off := int(s.off)
	if lo >= off && hi <= off+n {
		return
	}
	newLo, newHi := min(lo, off), max(hi, off+n)
	if newLo == off {
		if newHi-off <= cap(s.words) {
			s.words = s.words[:newHi-off]
			clear(s.words[n:])
			return
		}
		w := make([]uint64, newHi-off, max(newHi-off, 2*n))
		copy(w, s.words)
		s.words = w
		return
	}
	newLo = max(0, newLo-n)
	w := make([]uint64, newHi-newLo, max(newHi-newLo, 2*n))
	copy(w[off-newLo:], s.words)
	s.words = w
	s.off = int32(newLo)
}

// Add sets bit i and reports whether the set changed.
func (s *Set) Add(i int) bool {
	if i < 0 {
		panic("bitset: negative bit " + strconv.Itoa(i))
	}
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	s.cover(w, w+1)
	p := &s.words[w-int(s.off)]
	if *p&b != 0 {
		return false
	}
	*p |= b
	s.count++
	return true
}

// Remove clears bit i and reports whether the set changed.
func (s *Set) Remove(i int) bool {
	if i < 0 {
		return false
	}
	w := i/wordBits - int(s.off)
	if uint(w) >= uint(len(s.words)) {
		return false
	}
	b := uint64(1) << (uint(i) % wordBits)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Clear removes all bits, keeping capacity for the next use.
func (s *Set) Clear() {
	clear(s.words)
	s.words = s.words[:0]
	s.off = 0
	s.count = 0
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), off: s.off, count: s.count}
	copy(c.words, s.words)
	return c
}

// Union adds every bit of other into s and reports whether s changed.
func (s *Set) Union(other *Set) bool {
	if other == nil || other.count == 0 {
		return false
	}
	lo, hi, ok := s.newWords(other)
	if !ok {
		return false
	}
	s.cover(lo, hi+1)
	for w := lo; w <= hi; w++ {
		p := &s.words[w-int(s.off)]
		old := *p
		nw := old | other.words[w-int(other.off)]
		*p = nw
		s.count += int32(bits.OnesCount64(nw) - bits.OnesCount64(old))
	}
	return true
}

// newWords returns the absolute word range [lo, hi] of src that holds
// bits s lacks; ok is false when src adds nothing.
func (s *Set) newWords(src *Set) (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for i, w := range src.words {
		if w&^s.word(int(src.off)+i) != 0 {
			if lo < 0 {
				lo = int(src.off) + i
			}
			hi = int(src.off) + i
		}
	}
	return lo, hi, lo >= 0
}

// UnionDiff unions src into s and returns a set holding exactly the bits
// that were newly added to s (src − old s). It returns nil when nothing
// was added, so callers can cheaply skip propagation.
func (s *Set) UnionDiff(src *Set) *Set {
	if src == nil || src.count == 0 {
		return nil
	}
	diff := &Set{}
	if s.UnionInto(src, diff) == 0 {
		return nil
	}
	return diff
}

// UnionInto unions src into s like UnionDiff, but instead of allocating
// a fresh difference set it adds the newly inserted bits to diff (which
// must be non-nil) and returns how many bits were added. It is the
// allocation-free propagation primitive of the points-to solver: the
// destination's pending delta doubles as the diff accumulator.
func (s *Set) UnionInto(src, diff *Set) int {
	if src == nil || src.count == 0 {
		return 0
	}
	lo, hi, ok := s.newWords(src)
	if !ok {
		return 0
	}
	s.cover(lo, hi+1)
	diff.cover(lo, hi+1)
	added := 0
	for w := lo; w <= hi; w++ {
		p := &s.words[w-int(s.off)]
		add := src.words[w-int(src.off)] &^ *p
		if add == 0 {
			continue
		}
		*p |= add
		d := &diff.words[w-int(diff.off)]
		old := *d
		*d = old | add
		diff.count += int32(bits.OnesCount64(old|add) - bits.OnesCount64(old))
		added += bits.OnesCount64(add)
	}
	s.count += int32(added)
	return added
}

// AndWith intersects s with other in place (s &= other) and reports
// whether s changed. A nil other clears s.
func (s *Set) AndWith(other *Set) bool {
	if s.count == 0 {
		return false
	}
	if other == nil {
		s.Clear()
		return true
	}
	changed := false
	for i, w := range s.words {
		nw := w & other.word(int(s.off)+i)
		if nw != w {
			s.words[i] = nw
			s.count -= int32(bits.OnesCount64(w) - bits.OnesCount64(nw))
			changed = true
		}
	}
	return changed
}

// IntersectInto sets dst = a ∩ b, reusing dst's backing storage, and
// returns dst. A nil dst allocates a fresh set. dst must not alias a or
// b. The word loop replaces the per-bit membership tests the solver's
// cast/catch filtering would otherwise perform.
func IntersectInto(dst, a, b *Set) *Set {
	if dst == nil {
		dst = &Set{}
	}
	dst.Clear()
	lo, hi := max(int(a.off), int(b.off)), min(a.end(), b.end())
	if lo >= hi {
		return dst
	}
	dst.cover(lo, hi)
	count := 0
	for w := lo; w < hi; w++ {
		x := a.words[w-int(a.off)] & b.words[w-int(b.off)]
		dst.words[w-lo] = x
		count += bits.OnesCount64(x)
	}
	dst.count = int32(count)
	return dst
}

// IntersectRangeInto sets dst = a ∩ [lo, hi), reusing dst's backing
// storage, and returns dst. A nil dst allocates a fresh set; dst must
// not alias a. It is the word-range counterpart of IntersectInto for
// contiguously numbered object classes: when same-class objects occupy
// one ID interval, a class-filter intersection needs no mask set at all
// — just two partial-word masks and a copy of the words in between.
func IntersectRangeInto(dst, a *Set, lo, hi int) *Set {
	if dst == nil {
		dst = &Set{}
	}
	dst.Clear()
	lo = max(lo, int(a.off)*wordBits)
	hi = min(hi, a.end()*wordBits)
	if lo >= hi {
		return dst
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	dst.cover(loWord, hiWord+1)
	count := 0
	for i := loWord; i <= hiWord; i++ {
		w := rangeMasked(a.words[i-int(a.off)], i, loWord, hiWord, lo, hi)
		dst.words[i-loWord] = w
		count += bits.OnesCount64(w)
	}
	dst.count = int32(count)
	return dst
}

// rangeMasked clears the bits of word w (absolute word index i) that
// fall outside the bit range [lo, hi), whose words are loWord..hiWord.
func rangeMasked(w uint64, i, loWord, hiWord, lo, hi int) uint64 {
	if i == loWord {
		w &= ^uint64(0) << (uint(lo) % wordBits)
	}
	if i == hiWord && hi%wordBits != 0 {
		w &= (uint64(1) << (uint(hi) % wordBits)) - 1
	}
	return w
}

// OnesInRange returns the number of set bits in [lo, hi). It costs one
// popcount per touched word; the points-to solver uses it to detect
// deltas that lie entirely inside (or outside) a class's ID interval
// and skip the copy IntersectRangeInto would make.
func (s *Set) OnesInRange(lo, hi int) int {
	lo = max(lo, int(s.off)*wordBits)
	hi = min(hi, s.end()*wordBits)
	if lo >= hi {
		return 0
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	count := 0
	for i := loWord; i <= hiWord; i++ {
		count += bits.OnesCount64(rangeMasked(s.words[i-int(s.off)], i, loWord, hiWord, lo, hi))
	}
	return count
}

// Intersects reports whether s and other share at least one bit.
func (s *Set) Intersects(other *Set) bool {
	if other == nil {
		return false
	}
	lo, hi := max(int(s.off), int(other.off)), min(s.end(), other.end())
	for w := lo; w < hi; w++ {
		if s.words[w-int(s.off)]&other.words[w-int(other.off)] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit of other is also in s.
func (s *Set) ContainsAll(other *Set) bool {
	if other == nil {
		return true
	}
	for i, w := range other.words {
		if w&^s.word(int(other.off)+i) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if other == nil {
		return s.count == 0
	}
	if s.count != other.count {
		return false
	}
	// Equal counts make containment one way enough.
	return s.ContainsAll(other)
}

// ForEach calls fn for each set bit in ascending order. If fn returns
// false iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	base := int(s.off) * wordBits
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the set bits in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Min returns the smallest set bit, or -1 when empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return (int(s.off)+wi)*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set like "{1 5 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
