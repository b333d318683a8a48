package bitset

import (
	"math/rand"
	"sort"
	"testing"
)

// refOf returns the sorted members of a reference set.
func refOf(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func checkRef(t *testing.T, tag string, s *Set, ref map[int]bool) {
	t.Helper()
	want := refOf(ref)
	got := s.Slice()
	if len(got) != len(want) || s.Len() != len(want) {
		t.Fatalf("%s: got %v (len %d), want %v", tag, got, s.Len(), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", tag, got, want)
		}
	}
	for _, i := range want {
		if !s.Contains(i) {
			t.Fatalf("%s: Contains(%d) false", tag, i)
		}
	}
	if len(want) > 0 && s.Min() != want[0] {
		t.Fatalf("%s: Min=%d want %d", tag, s.Min(), want[0])
	}
}

// randomBits draws bits clustered around a random centre, so sets grow
// their windows both upward and toward zero.
func randomBits(rng *rand.Rand, n int) []int {
	centre := rng.Intn(5000)
	out := make([]int, n)
	for i := range out {
		out[i] = max(0, centre+rng.Intn(1200)-600)
	}
	return out
}

// The word window must be invisible: every operation agrees with a map
// reference on sets whose windows start far from zero, grow in both
// directions, and are cleared and reused at a different offset.
func TestWindowedSetsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := &Set{}
	for trial := 0; trial < 300; trial++ {
		a, b := &Set{}, New(64)
		ra, rb := map[int]bool{}, map[int]bool{}
		for _, i := range randomBits(rng, rng.Intn(40)) {
			a.Add(i)
			ra[i] = true
		}
		for _, i := range randomBits(rng, rng.Intn(40)) {
			b.Add(i)
			rb[i] = true
		}
		checkRef(t, "a", a, ra)
		checkRef(t, "b", b, rb)

		// Remove a few bits, some absent.
		for _, i := range randomBits(rng, 5) {
			if a.Remove(i) != ra[i] {
				t.Fatalf("Remove(%d) change report wrong", i)
			}
			delete(ra, i)
		}
		checkRef(t, "a after remove", a, ra)

		// UnionInto into a pooled (cleared, re-based) diff.
		pool.Clear()
		u := a.Clone()
		ru := map[int]bool{}
		for i := range ra {
			ru[i] = true
		}
		rdiff := map[int]bool{}
		for i := range rb {
			if !ru[i] {
				rdiff[i] = true
			}
			ru[i] = true
		}
		if added := u.UnionInto(b, pool); added != len(rdiff) {
			t.Fatalf("UnionInto added %d, want %d", added, len(rdiff))
		}
		checkRef(t, "union", u, ru)
		checkRef(t, "diff", pool, rdiff)
		if !u.ContainsAll(a) || !u.ContainsAll(b) {
			t.Fatal("union misses an operand bit")
		}

		// Intersections.
		ri := map[int]bool{}
		for i := range ra {
			if rb[i] {
				ri[i] = true
			}
		}
		in := IntersectInto(pool, a, b)
		checkRef(t, "intersect", in, ri)
		if a.Intersects(b) != (len(ri) > 0) {
			t.Fatal("Intersects disagrees with IntersectInto")
		}
		and := a.Clone()
		and.AndWith(b)
		checkRef(t, "and", and, ri)
		if !and.Equal(in) {
			t.Fatal("Equal disagrees")
		}

		// Ranges.
		lo := rng.Intn(5600)
		hi := lo + rng.Intn(900)
		rr := map[int]bool{}
		for i := range ra {
			if i >= lo && i < hi {
				rr[i] = true
			}
		}
		if got := a.OnesInRange(lo, hi); got != len(rr) {
			t.Fatalf("OnesInRange(%d,%d)=%d want %d", lo, hi, got, len(rr))
		}
		checkRef(t, "range", IntersectRangeInto(pool, a, lo, hi), rr)

		// Union reports change exactly when b adds something.
		v := a.Clone()
		if v.Union(b) != (len(rdiff) > 0) {
			t.Fatal("Union change report wrong")
		}
		checkRef(t, "Union", v, ru)
	}
}

// A set filled from high IDs downward must not re-copy its window once
// per word: toward-zero growth reserves slack below the data.
func TestWindowGrowsGeometricallyTowardZero(t *testing.T) {
	s := &Set{}
	reallocs := 0
	last := -1
	for i := 64 * 4000; i >= 0; i -= 64 {
		s.Add(i)
		if c := cap(s.words); c != last {
			reallocs++
			last = c
		}
	}
	if reallocs > 20 {
		t.Fatalf("%d reallocations filling 4000 words downward", reallocs)
	}
	if s.Len() != 4001 {
		t.Fatalf("len=%d", s.Len())
	}
}

// A single high bit costs one word, not one word per 64 lower IDs.
func TestSingleHighBitIsOneWord(t *testing.T) {
	var s Set
	s.Add(1 << 20)
	if s.Words() != 1 {
		t.Fatalf("Words()=%d for one bit", s.Words())
	}
}
