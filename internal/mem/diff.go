package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// commitGap is the coalescing gap of the commit diff: changed bytes
// separated by fewer unchanged bytes than this publish as one range (real
// DSM systems coalesce to reduce per-range bookkeeping).
const commitGap = 8

// DiffRange is one contiguous run of changed bytes within a page.
type DiffRange struct {
	Off int
	Len int
}

// loggedDiff appends to out the changed byte ranges of a private page — the
// byte-level comparison of paper §V-A. Bit w of logged marks word w (bytes
// 8w..8w+7) as written in this sub-computation, and twin holds each logged
// word's snapshot value at its offset; an unlogged word was never stored
// to, so it is unchanged and its twin bytes are never read.
//
// The ranges are those of a byte-wise diff of priv against the full
// snapshot with a gap of commitGap (diffReference in diff_test.go, which
// the property tests hold this to): a changed word's interior unchanged
// run is at most six bytes and never splits a range, and changed bytes in
// two different words coalesce exactly when fewer than commitGap unchanged
// bytes lie between them. A logged word that holds its snapshot value
// again (a silent store) is unchanged and publishes nothing.
func loggedDiff(priv, twin []byte, logged []uint64, out []DiffRange) []DiffRange {
	// [start, end) is the open range; end sits commitGap before the page
	// so that the first change never coalesces with it.
	start, end := 0, -commitGap
	for i, m := range logged {
		if m == ^uint64(0) {
			// 64 logged words: a block rewritten whole, often with what it
			// held. Skip it through the vectorized compare when unchanged.
			off := i << 9
			if bytes.Equal(priv[off:off+512], twin[off:off+512]) {
				continue
			}
		}
		for m != 0 {
			off := (i<<6 + bits.TrailingZeros64(m)) << 3
			m &= m - 1
			x := binary.LittleEndian.Uint64(priv[off:]) ^ binary.LittleEndian.Uint64(twin[off:])
			if x == 0 {
				continue
			}
			lo := off + bits.TrailingZeros64(x)>>3
			hi := off + 8 - bits.LeadingZeros64(x)>>3
			if lo-end < commitGap {
				end = hi
				continue
			}
			if end > start {
				out = append(out, DiffRange{Off: start, Len: end - start})
			}
			start, end = lo, hi
		}
	}
	if end > start {
		out = append(out, DiffRange{Off: start, Len: end - start})
	}
	return out
}

// DiffBytes returns the total changed bytes across ranges.
func DiffBytes(ranges []DiffRange) int {
	total := 0
	for _, r := range ranges {
		total += r.Len
	}
	return total
}
