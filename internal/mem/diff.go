package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// diffChunk is the stride of the bytes.Equal prefix scan. Unchanged spans
// (the common case: most of a dirty page is untouched) skip at this
// granularity through the runtime's vectorized memequal before the scan
// drops to word- and byte-precision at run boundaries.
const diffChunk = 512

// DiffRange is one contiguous run of changed bytes within a page.
type DiffRange struct {
	Off int
	Len int
}

// Diff compares a dirty private page against its twin (the copy taken at
// the first write fault) and returns the changed byte ranges — the
// byte-level comparison of paper §V-A. Adjacent changed bytes coalesce
// into one range; runs of unchanged bytes shorter than minGap do not split
// a range (real DSM systems coalesce to reduce per-range bookkeeping).
//
// The scan compares eight bytes at a time (the word-wise coalescing of the
// DSM lineage this design borrows from) with byte-precise fixups at run
// boundaries; the ranges returned are identical to the byte-at-a-time
// reference implementation diffReference (diff_test.go), which the
// property tests verify.
func Diff(priv, twin []byte, minGap int) []DiffRange {
	if len(priv) != len(twin) {
		// Caller bug; diffing different-sized buffers has no meaning.
		// Treat everything as changed to stay safe.
		n := len(priv)
		if len(twin) < n {
			n = len(twin)
		}
		if n == 0 {
			return nil
		}
		return []DiffRange{{Off: 0, Len: n}}
	}
	var out []DiffRange
	i := 0
	n := len(priv)
	for i < n {
		// Skip the unchanged prefix: chunk-wise, then word-wise, then the
		// exact first changed byte from the xor of the mismatching word.
		for i+diffChunk <= n && bytes.Equal(priv[i:i+diffChunk], twin[i:i+diffChunk]) {
			i += diffChunk
		}
		for i+8 <= n {
			x := binary.LittleEndian.Uint64(priv[i:]) ^ binary.LittleEndian.Uint64(twin[i:])
			if x != 0 {
				i += bits.TrailingZeros64(x) >> 3
				break
			}
			i += 8
		}
		for i < n && priv[i] == twin[i] {
			i++
		}
		if i >= n {
			break
		}
		// A changed run starts at i. Extend it until minGap consecutive
		// unchanged bytes terminate it. end tracks one past the last
		// changed byte seen; gap counts verified-unchanged bytes past end.
		start := i
		end := i + 1
		gap := 0
		j := end
		for j+8 <= n && gap < minGap {
			x := binary.LittleEndian.Uint64(priv[j:]) ^ binary.LittleEndian.Uint64(twin[j:])
			if x == 0 {
				gap += 8
				j += 8
				continue
			}
			if minGap >= 7 && x&0xff != 0 && x>>56 != 0 {
				// Both boundary bytes changed: the run swallows the whole
				// word (interior unchanged bytes are < minGap) and no gap
				// carries across either edge. Fast-forward such words —
				// the steady state of densely rewritten pages.
				end = j + 8
				gap = 0
				j += 8
				for j+8 <= n {
					x = binary.LittleEndian.Uint64(priv[j:]) ^ binary.LittleEndian.Uint64(twin[j:])
					if x == 0 || x&0xff == 0 || x>>56 == 0 {
						break
					}
					end = j + 8
					j += 8
				}
				continue
			}
			// Unchanged bytes at the low end of the word extend the gap;
			// if that completes minGap the run ended before this word's
			// first change (the extra equal bytes skipped beyond minGap
			// are unchanged, so the resume below lands identically).
			if gap+bits.TrailingZeros64(x)>>3 >= minGap {
				gap += bits.TrailingZeros64(x) >> 3
				break
			}
			if minGap >= 7 {
				// No interior unchanged run of a word (≤6 bytes between
				// two changed bytes) can reach minGap, so the word's last
				// change wins: whatever trails it becomes the new gap.
				lz := bits.LeadingZeros64(x) >> 3
				end = j + 8 - lz
				gap = lz
				j += 8
				continue
			}
			// Small minGap: an unchanged run inside this word could split
			// the range. Replay the word byte-precise.
			for k := j; k < j+8 && gap < minGap; k++ {
				if priv[k] != twin[k] {
					end = k + 1
					gap = 0
				} else {
					gap++
				}
			}
			j += 8
		}
		for ; j < n && gap < minGap; j++ {
			if priv[j] != twin[j] {
				end = j + 1
				gap = 0
			} else {
				gap++
			}
		}
		if out == nil {
			// One right-sized allocation covers typical range counts
			// instead of growing through the tiny append size classes.
			out = make([]DiffRange, 0, 16)
		}
		out = append(out, DiffRange{Off: start, Len: end - start})
		i = end + gap
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
