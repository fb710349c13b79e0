package fault

import "math/bits"

// BitSet is a dense bitmap over universe fault positions — the
// campaign session layer's cumulative detection bookkeeping.  A
// multi-test dropped session over N faults keeps N bits here instead
// of materialized index slices, so cross-test dropping costs N/8
// bytes however many stages narrow the universe.  Set grows the
// bitmap on demand; Get outside the current capacity reads false.  A
// BitSet is not synchronized.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty bitmap with capacity for n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Get reports bit i (false beyond the current capacity).
func (b *BitSet) Get(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]>>(uint(i)&63)&1 == 1
}

// Set sets bit i, growing the bitmap as needed.
func (b *BitSet) Set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// ClearRun returns the first run [lo, hi) of clear bits in [i, end):
// lo is the first clear bit at or after i and hi the first set bit
// after lo, both capped at end, so lo == end when none is clear.  A
// nil bitmap is all clear.  The streaming drivers generate a claimed
// range's survivors one run at a time.
func (b *BitSet) ClearRun(i, end int) (lo, hi int) {
	if b == nil {
		return min(i, end), end
	}
	lo = b.scan(i, end, ^uint64(0))
	return lo, b.scan(lo, end, 0)
}

// scan returns the first index in [i, end) whose bit is set, or with
// flip = ^0 the first whose bit is clear; end when there is none.
// Bits beyond the capacity read clear.
func (b *BitSet) scan(i, end int, flip uint64) int {
	for i < end {
		w := i >> 6
		if w >= len(b.words) {
			if flip == 0 {
				return end
			}
			return i
		}
		if x := (b.words[w] ^ flip) >> (uint(i) & 63); x != 0 {
			return min(end, i+bits.TrailingZeros64(x))
		}
		i = (w + 1) << 6
	}
	return end
}

// Count returns the number of set bits.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or folds other's set bits into b, growing b as needed — the
// partition-merge primitive: per-worker and per-process detection
// bitmaps cover disjoint index ranges, so OR is their exact union.
func (b *BitSet) Or(other *BitSet) {
	if other == nil {
		return
	}
	for len(b.words) < len(other.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// OrWords folds words into b at word offset lo (words[i] holds bits
// 64·(lo+i) through 64·(lo+i)+63), growing b only as far as a set bit
// needs, as Set does.
func (b *BitSet) OrWords(lo int, words []uint64) {
	for i, w := range words {
		if w == 0 {
			continue
		}
		for len(b.words) <= lo+i {
			b.words = append(b.words, 0)
		}
		b.words[lo+i] |= w
	}
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	return &BitSet{words: append([]uint64(nil), b.words...)}
}

// Words exposes the backing word array (bit i lives at word i/64, bit
// i%64) — the serialization surface of the checkpoint layer.  The
// slice aliases the bitmap; callers must not mutate it.
func (b *BitSet) Words() []uint64 { return b.words }

// BitSetFromWords rebuilds a bitmap around a deserialized word array;
// the slice is adopted, not copied.
func BitSetFromWords(words []uint64) *BitSet { return &BitSet{words: words} }
