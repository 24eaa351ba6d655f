package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// sortable is what sortEdges orders: an edge or a stored row, either
// of which names its endpoints.
type sortable[E any] interface {
	*E
	endpoints() (from, to SubID)
}

func (e *Edge) endpoints() (from, to SubID)    { return e.From, e.To }
func (r *edgeRow) endpoints() (from, to SubID) { return r.from.id(), r.to.id() }

// sortEdges orders edges (or rows) canonically, by order — edgeCmp on
// edges, arenas.cmp on rows — without moving an element per comparison. It sorts one 16-byte key
// per element — the (From, To) pair packed into a word that orders
// exactly like the pair, plus the element's position — and then
// permutes the elements once, in place. Equal pairs fall back to order
// and then to position, so the result is the stable sort by order. A
// batch whose ids do not pack (the pair needs more than 64 bits) keeps
// all-zero words, which sends every comparison to order: slower, same
// result.
//
// sc supplies the key buffers; the fold passes its own so a per-seal
// epoch allocates nothing here, and nil means fresh buffers. A per-seal
// fold sorts zero or one edge almost every epoch, hence the early out.
func sortEdges[E any, P sortable[E]](edges []E, order func(a, b *E) int, sc *edgeSortScratch) {
	if len(edges) < 2 {
		return
	}
	if sc == nil {
		sc = new(edgeSortScratch)
	}
	keys := slices.Grow(sc.keys[:0], len(edges))[:len(edges)]
	sc.keys = keys
	pk, packs := packingFor[E, P](edges)
	for i := range edges {
		keys[i] = edgeKey{pos: uint32(i)}
		if packs {
			keys[i].pair = pk.pair(P(&edges[i]).endpoints())
		}
	}
	if packs && len(keys) >= radixSortMin {
		sc.tmp = slices.Grow(sc.tmp[:0], len(keys))[:len(keys)]
		keys = radixSortKeys(keys, sc.tmp, 2*pk.idBits)
		// Equal pairs (one From and To under several kinds or objects)
		// come out in position order; order decides them.
		for lo := 0; lo < len(keys); {
			hi := lo + 1
			for hi < len(keys) && keys[hi].pair == keys[lo].pair {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(keys[lo:hi], keyCmp(edges, order))
			}
			lo = hi
		}
	} else {
		slices.SortFunc(keys, keyCmp(edges, order))
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

// keyCmp orders keys by pair, then by order on the elements they name,
// then by position.
func keyCmp[E any](edges []E, order func(a, b *E) int) func(a, b edgeKey) int {
	return func(a, b edgeKey) int {
		if a.pair != b.pair {
			return cmp.Compare(a.pair, b.pair)
		}
		if c := order(&edges[a.pos], &edges[b.pos]); c != 0 {
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
func packingFor[E any, P sortable[E]](edges []E) (idPacking, bool) {
	var threads uint
	var alphas uint64
	for i := range edges {
		from, to := P(&edges[i]).endpoints()
		threads |= uint(from.Thread) | uint(to.Thread)
		alphas |= from.Alpha | to.Alpha
	}
	pk := idPacking{alphaBits: uint(bits.Len64(alphas))}
	pk.idBits = uint(bits.Len(threads)) + pk.alphaBits
	return pk, 2*pk.idBits <= 64
}

func (pk idPacking) id(id SubID) uint64 { return uint64(id.Thread)<<pk.alphaBits | id.Alpha }

func (pk idPacking) pair(from, to SubID) uint64 { return pk.id(from)<<pk.idBits | pk.id(to) }

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
func permuteEdges[E any](edges []E, keys []edgeKey) {
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
