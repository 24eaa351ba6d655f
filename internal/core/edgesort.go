package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// sortEdges orders edges canonically (edgeCmp) without moving an 80-byte
// Edge per comparison. It sorts one 16-byte key per edge — the (From,
// To) pair packed into a word that orders exactly like the pair, plus the
// edge's position — and then permutes the edges once, in place. Equal
// pairs fall back to edgeCmp and then to position, so the result is the
// stable sort by edgeCmp. A batch whose ids do not pack (the pair needs
// more than 64 bits) keeps all-zero words, which sends every comparison
// to edgeCmp: slower, same order.
//
// sc supplies the key buffers; the fold passes its own so a per-seal
// epoch allocates nothing here, and nil means fresh buffers. A per-seal
// fold sorts zero or one edge almost every epoch, hence the early out.
func sortEdges(edges []Edge, sc *edgeSortScratch) {
	if len(edges) < 2 {
		return
	}
	if sc == nil {
		sc = new(edgeSortScratch)
	}
	keys := slices.Grow(sc.keys[:0], len(edges))[:len(edges)]
	sc.keys = keys
	pk, packs := packingFor(edges)
	for i := range edges {
		keys[i] = edgeKey{pos: uint32(i)}
		if packs {
			keys[i].pair = pk.pair(&edges[i])
		}
	}
	if packs && len(keys) >= radixSortMin {
		sc.tmp = slices.Grow(sc.tmp[:0], len(keys))[:len(keys)]
		keys = radixSortKeys(keys, sc.tmp, 2*pk.idBits)
		// Equal pairs (one From and To under several kinds or objects)
		// come out in position order; edgeCmp decides them.
		for lo := 0; lo < len(keys); {
			hi := lo + 1
			for hi < len(keys) && keys[hi].pair == keys[lo].pair {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(keys[lo:hi], keyCmp(edges))
			}
			lo = hi
		}
	} else {
		slices.SortFunc(keys, keyCmp(edges))
	}
	permuteEdges(edges, keys)
}

// edgeKey is one edge's sort key: pair orders like (From, To), and pos
// is the edge's index in the batch.
type edgeKey struct {
	pair uint64
	pos  uint32
}

// edgeSortScratch holds sortEdges' reusable key buffers (tmp is the
// radix sort's second buffer).
type edgeSortScratch struct {
	keys, tmp []edgeKey
}

// radixSortMin is the batch size from which sortEdges radix-sorts the
// packed pairs instead of comparison-sorting the keys.
const radixSortMin = 256

// keyCmp orders keys by pair, then by edgeCmp on the edges they name,
// then by position.
func keyCmp(edges []Edge) func(a, b edgeKey) int {
	return func(a, b edgeKey) int {
		if a.pair != b.pair {
			return cmp.Compare(a.pair, b.pair)
		}
		if c := edgeCmp(&edges[a.pos], &edges[b.pos]); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	}
}

// idPacking packs a batch's SubIDs into idBits-wide words, thread above
// the alphaBits-wide alpha, so packed words order like (thread, alpha).
type idPacking struct {
	alphaBits, idBits uint
}

// packingFor sizes the packing to the widest thread and alpha of the
// batch, and reports whether a (From, To) pair of packed ids fits one
// word. A negative thread reads as a full-width one, so it never packs.
func packingFor(edges []Edge) (idPacking, bool) {
	var threads uint
	var alphas uint64
	for i := range edges {
		e := &edges[i]
		threads |= uint(e.From.Thread) | uint(e.To.Thread)
		alphas |= e.From.Alpha | e.To.Alpha
	}
	pk := idPacking{alphaBits: uint(bits.Len64(alphas))}
	pk.idBits = uint(bits.Len(threads)) + pk.alphaBits
	return pk, 2*pk.idBits <= 64
}

func (pk idPacking) id(id SubID) uint64 { return uint64(id.Thread)<<pk.alphaBits | id.Alpha }

func (pk idPacking) pair(e *Edge) uint64 { return pk.id(e.From)<<pk.idBits | pk.id(e.To) }

// radixSortKeys sorts keys by their low `bits` bits of pair, least
// significant byte first, ping-ponging through tmp (same length); each
// pass is stable, so equal pairs keep position order. It returns
// whichever buffer holds the result. Passes whose byte is the same in
// every key are skipped.
func radixSortKeys(keys, tmp []edgeKey, bits uint) []edgeKey {
	for shift := uint(0); shift < bits; shift += 8 {
		var count [256]int
		for i := range keys {
			count[byte(keys[i].pair>>shift)]++
		}
		if count[byte(keys[0].pair>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := byte(k.pair >> shift)
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// permuteEdges moves each edge to the position its key was sorted to —
// position i receives edges[keys[i].pos] — following the permutation's
// cycles in place, so each edge is copied once. It consumes the keys'
// positions as visited marks.
func permuteEdges(edges []Edge, keys []edgeKey) {
	for i := range keys {
		if int(keys[i].pos) == i {
			continue
		}
		held := edges[i]
		j := i
		for {
			k := int(keys[j].pos)
			keys[j].pos = uint32(j)
			if k == i {
				edges[j] = held
				break
			}
			edges[j] = edges[k]
			j = k
		}
	}
}
