// Package lz4 implements LZ4 block compression in pure Go. The paper
// reports that the provenance log "turns out to be highly compressible —
// we were able to achieve a compression ratio of between 6x and 37x
// using the lz4 compression algorithm" (§VII-D); Table 9's
// compressed-size column is regenerated with this package. Nothing in
// the system reads a block back, so the decoder lives with the tests,
// as the round-trip oracle Compress is held to.
//
// The implementation follows the LZ4 block specification: a sequence of
// tokens, each describing a literal run and a match (offset + length)
// into the previously decoded output. It favours clarity over speed but
// uses a real hash-chain matcher, so ratios are representative.
package lz4

import "encoding/binary"

const (
	minMatch     = 4
	hashLog      = 16
	hashTableLen = 1 << hashLog
	maxOffset    = 65535
	// lastLiterals: the spec requires the final 5 bytes be literals and
	// matches must not start within 12 bytes of the end.
	lastLiterals = 5
	mfLimit      = 12
)

// hash4 hashes a 4-byte sequence to a table slot.
func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashLog)
}

// Compress appends the LZ4 block compression of src to dst and returns
// the result. Incompressible input expands by at most ~0.4% + 16 bytes.
func Compress(dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		return append(dst, 0)
	}
	var table [hashTableLen]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	i := 0
	limit := n - mfLimit

	emitSequence := func(litStart, litEnd, matchOff, matchLen int) {
		litLen := litEnd - litStart
		token := byte(0)
		if litLen >= 15 {
			token = 0xF0
		} else {
			token = byte(litLen) << 4
		}
		ml := 0
		if matchLen > 0 {
			ml = matchLen - minMatch
			if ml >= 15 {
				token |= 0x0F
			} else {
				token |= byte(ml)
			}
		}
		dst = append(dst, token)
		if litLen >= 15 {
			for v := litLen - 15; ; v -= 255 {
				if v >= 255 {
					dst = append(dst, 255)
					continue
				}
				dst = append(dst, byte(v))
				break
			}
		}
		dst = append(dst, src[litStart:litEnd]...)
		if matchLen > 0 {
			var off [2]byte
			binary.LittleEndian.PutUint16(off[:], uint16(matchOff))
			dst = append(dst, off[:]...)
			if ml >= 15 {
				for v := ml - 15; ; v -= 255 {
					if v >= 255 {
						dst = append(dst, 255)
						continue
					}
					dst = append(dst, byte(v))
					break
				}
			}
		}
	}

	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash4(v)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || i-int(cand) > maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		// Extend the match forward.
		matchLen := minMatch
		for i+matchLen < n-lastLiterals && src[int(cand)+matchLen] == src[i+matchLen] {
			matchLen++
		}
		emitSequence(anchor, i, i-int(cand), matchLen)
		i += matchLen
		anchor = i
	}
	// Final literals-only sequence.
	emitSequence(anchor, n, 0, 0)
	return dst
}
