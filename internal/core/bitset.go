package core

import "math/bits"

// Bitset is a fixed-size dense bit set. It lives in core (rather than
// internal/algo, which re-exports it) because the columnar batch layer uses
// it for validity bitmaps and algo already depends on core.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset creates a bit set able to hold n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// reset resizes the set to n bits, all off, reusing its words when they
// suffice.
func (b *Bitset) reset(n int) {
	b.words = reuse(b.words, (n+63)/64)
	b.n = n
}

// BitsetFromWords reconstructs a bit set from its backing words, as produced
// by Words. The codec uses it to decode validity bitmaps.
func BitsetFromWords(words []uint64, n int) *Bitset {
	b := NewBitset(n)
	copy(b.words, words)
	return b
}

// Words exposes the backing words for serialization. Bits at positions >= Len
// are zero.
func (b *Bitset) Words() []uint64 { return b.words }

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set turns bit i on.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear turns bit i off.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is on.
func (b *Bitset) Test(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ScanFrom visits every set bit with index >= start, in increasing order,
// invoking visit for each. It is the hot loop of IEJoin.
func (b *Bitset) ScanFrom(start int, visit func(i int)) {
	b.ScanRange(start, b.n, visit)
}

// ScanRange visits every set bit in [start, end), in increasing order.
func (b *Bitset) ScanRange(start, end int, visit func(i int)) {
	if start < 0 {
		start = 0
	}
	if end > b.n {
		end = b.n
	}
	if start >= end {
		return
	}
	wi := start >> 6
	// Mask off bits below start in the first word.
	w := b.words[wi] & (^uint64(0) << (uint(start) & 63))
	for {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i >= end {
				return
			}
			visit(i)
			w &= w - 1
		}
		wi++
		if wi >= len(b.words) {
			return
		}
		w = b.words[wi]
	}
}
