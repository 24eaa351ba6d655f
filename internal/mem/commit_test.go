package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// smallAlphabet draws bytes from a four-letter alphabet, so that random
// stores often write the value a byte already holds: silent stores, and
// words that change and change back, are common instead of rare.
func smallAlphabet(r *rand.Rand, p []byte) {
	var bits uint64
	for i := range p {
		if i%32 == 0 {
			bits = r.Uint64()
		}
		p[i] = [4]byte{0, 1, 0xA5, 0xFF}[bits&3]
		bits >>= 2
	}
}

// randomStore picks an n-byte store inside a page of ps bytes: a typed
// store (1, 4 or 8 bytes, aligned or not), a short run, or a long stretch.
func randomStore(r *rand.Rand, ps int) (po, n int) {
	switch r.Intn(4) {
	case 0:
		n = []int{1, 4, 8}[r.Intn(3)]
	case 1:
		n = 1 + r.Intn(32)
	case 2:
		n = 1 + r.Intn(ps)
	default:
		n = 8
		po = r.Intn(ps/8) * 8
		return po, n
	}
	if n > ps {
		n = ps
	}
	return r.Intn(ps - n + 1), n
}

// TestQuickLoggedDiffMatchesDiff holds the commit's diff to the whole-page
// diff: a page whose stores log their words into a garbage-filled twin
// yields, from its logged words alone, the ranges Diff and diffReference
// find against a full copy of the snapshot. It also pins what logRange
// logs: exactly the words some store touched.
func TestQuickLoggedDiffMatchesDiff(t *testing.T) {
	for _, ps := range []int{64, 4096} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			snap := make([]byte, ps)
			smallAlphabet(r, snap)
			sp := &spacePage{
				priv:   append([]byte(nil), snap...),
				twin:   make([]byte, ps),
				logged: make([]uint64, (ps/8+63)/64),
			}
			r.Read(sp.twin) // a recycled twin: garbage until logged
			touched := make([]bool, ps/8)
			for k := r.Intn(40); k > 0; k-- {
				po, n := randomStore(r, ps)
				sp.logRange(po/8, (po+n-1)/8)
				smallAlphabet(r, sp.priv[po:po+n])
				for w := po / 8; w <= (po+n-1)/8; w++ {
					touched[w] = true
				}
			}
			for w, want := range touched {
				if got := sp.logged[w/64]&(1<<(w%64)) != 0; got != want {
					t.Logf("ps=%d word %d: logged=%v, touched=%v", ps, w, got, want)
					return false
				}
			}
			got := loggedDiff(sp.priv, sp.twin, sp.logged, nil)
			want := Diff(sp.priv, snap, commitGap)
			ref := diffReference(sp.priv, snap, commitGap)
			if !sameRanges(got, want) || !sameRanges(want, ref) {
				t.Logf("ps=%d: logged %v, Diff %v, reference %v", ps, got, want, ref)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("page size %d: %v", ps, err)
		}
	}
}

func sameRanges(a, b []DiffRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fullTwinModel is the commit as it ran with whole-page twins: each page's
// snapshot is copied at its first write, the stores land in a private
// copy, and Commit publishes Diff(priv, twin, 8) with ApplyDiff.
type fullTwinModel struct {
	backing *Backing
	ps      int
	priv    map[PageID][]byte
	twin    map[PageID][]byte
}

func (m *fullTwinModel) write(a Addr, src []byte) {
	for off := 0; off < len(src); {
		cur := a + Addr(off)
		id := m.backing.PageOf(cur)
		if m.priv[id] == nil {
			m.twin[id] = make([]byte, m.ps)
			m.backing.SnapshotPage(id, m.twin[id])
			m.priv[id] = append([]byte(nil), m.twin[id]...)
		}
		po := int(uint64(cur) % uint64(m.ps))
		off += copy(m.priv[id][po:], src[off:])
	}
}

func (m *fullTwinModel) commit(t *testing.T) CommitResult {
	var res CommitResult
	for id, priv := range m.priv {
		ranges := Diff(priv, m.twin[id], commitGap)
		if ref := diffReference(priv, m.twin[id], commitGap); !sameRanges(ranges, ref) {
			t.Fatalf("page %d: Diff %v, reference %v", id, ranges, ref)
		}
		res.DiffedBytes += m.ps
		if n := DiffBytes(ranges); n > 0 {
			m.backing.ApplyDiff(id, priv, ranges)
			res.DirtyPages++
			res.CommittedBytes += n
		}
	}
	clear(m.priv)
	clear(m.twin)
	return res
}

// TestQuickCommitMatchesFullTwin drives two tracked spaces over one
// backing through random sub-computations — typed stores, page-straddling
// Writes, silent stores and Reads — and commits them one after the other,
// as two threads reaching a synchronization point do. A model running the
// whole-page twin and Diff over a second backing must see the same
// CommitResult at every commit and the same bytes in its backing after
// it. The spaces' pools start full of garbage buffers, and recycle their
// own after each round.
func TestQuickCommitMatchesFullTwin(t *testing.T) {
	const base, pages = 0x1000_0000, 5
	for _, ps := range []int{64, 4096} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			size := pages * ps
			mk := func() *Backing {
				b, err := NewBacking("g", base, size, ps)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			shared, oracle := mk(), mk()
			init := make([]byte, size)
			smallAlphabet(r, init)
			for _, b := range []*Backing{shared, oracle} {
				if _, err := b.WriteAt(base, init, 0); err != nil {
					t.Fatal(err)
				}
			}
			spaces := make([]*Space, 2)
			models := make([]*fullTwinModel, 2)
			for i := range spaces {
				spaces[i] = NewSpace(int32(i), []*Backing{shared}, nil, true)
				for k := 0; k < 2*pages; k++ {
					junk := make([]byte, ps)
					r.Read(junk)
					spaces[i].pool.putBuf(junk)
				}
				models[i] = &fullTwinModel{backing: oracle, ps: ps, priv: map[PageID][]byte{}, twin: map[PageID][]byte{}}
			}
			for round := 0; round < 4; round++ {
				for i, s := range spaces {
					m := models[i]
					for k := r.Intn(30); k > 0; k-- {
						if err := randomAccess(r, s, m, base, size); err != nil {
							t.Logf("ps=%d round %d space %d: %v", ps, round, i, err)
							return false
						}
					}
				}
				for i, s := range spaces {
					got, want := s.Commit(), models[i].commit(t)
					if got != want {
						t.Logf("ps=%d round %d space %d: Commit = %+v, full twin = %+v", ps, round, i, got, want)
						return false
					}
					a, b := make([]byte, size), make([]byte, size)
					if err := shared.ReadAt(base, a); err != nil {
						t.Fatal(err)
					}
					if err := oracle.ReadAt(base, b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Logf("ps=%d round %d space %d: backings differ after commit", ps, round, i)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("page size %d: %v", ps, err)
		}
	}
}

// randomAccess performs one random access on s and mirrors a store on m.
// A read checks that s shows the model's private view.
func randomAccess(r *rand.Rand, s *Space, m *fullTwinModel, base, size int) error {
	view := func(a Addr, n int) []byte {
		out := make([]byte, n)
		if err := m.backing.ReadAt(a, out); err != nil {
			panic(err)
		}
		for off := 0; off < n; off++ {
			cur := a + Addr(off)
			if p := m.priv[m.backing.PageOf(cur)]; p != nil {
				out[off] = p[uint64(cur)%uint64(m.ps)]
			}
		}
		return out
	}
	n := []int{1, 4, 8, 8, 1 + r.Intn(24), 1 + r.Intn(3*m.ps)}[r.Intn(6)]
	if n > size {
		n = size
	}
	a := Addr(base + r.Intn(size-n+1))
	src := make([]byte, n)
	switch r.Intn(5) {
	case 0: // read back the private view
		got := make([]byte, n)
		if err := s.Read(a, got); err != nil {
			return err
		}
		if want := view(a, n); !bytes.Equal(got, want) {
			return fmt.Errorf("Read(%#x, %d) = %x, want %x", a, n, got, want)
		}
		return nil
	case 1: // silent store: the value already there
		copy(src, view(a, n))
	default:
		smallAlphabet(r, src)
	}
	var err error
	switch n {
	case 1:
		_, err = s.StoreU8(a, src[0])
	case 4:
		_, err = s.StoreU32(a, binary.LittleEndian.Uint32(src))
	case 8:
		_, err = s.StoreU64(a, binary.LittleEndian.Uint64(src))
	default:
		_, err = s.Write(a, src)
	}
	m.write(a, src)
	return err
}
