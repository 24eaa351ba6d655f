package mem

import (
	"encoding/binary"
	"math"
)

// Typed accessors over a Space. All multi-byte values use little-endian
// layout, matching the x86 target of the original system. Each accessor
// reuses a small on-stack buffer; the Space methods never retain it.
//
// Accesses wholly inside one tracked page — the overwhelmingly common case
// — take a single-page fast path: one cached page lookup, the protection
// check, and a direct load/store on the private copy, skipping the generic
// multi-page Read/Write loop and all intermediate copies.

// fastReadPage resolves the page for an n-byte tracked read contained in a
// single page, bumping stats and faulting exactly as the generic path
// does. ok is false when the access must take the generic path (native
// mode or a page-straddling access).
func (s *Space) fastReadPage(a Addr, n int) (sp *spacePage, po int, err error, ok bool) {
	if !s.tracking {
		return nil, 0, nil, false
	}
	po = int(uint64(a) & s.pageMask)
	if po+n > s.pageSize {
		return nil, 0, nil, false
	}
	s.stats.Reads++
	sp, id, err := s.pageFor(a, AccessRead)
	if err != nil {
		return nil, 0, err, true
	}
	if sp.prot&ProtRead == 0 {
		s.fault(sp, id, a, AccessRead)
	}
	return sp, po, nil, true
}

// fastWritePage is fastReadPage for stores: it additionally materializes
// the private copy and twin, logs the words the store is the first to
// write, and returns the writable in-page slice.
func (s *Space) fastWritePage(a Addr, n int) (dst []byte, err error, ok bool) {
	if !s.tracking {
		return nil, nil, false
	}
	po := int(uint64(a) & s.pageMask)
	if po+n > s.pageSize {
		return nil, nil, false
	}
	s.stats.Writes++
	sp, id, err := s.pageFor(a, AccessWrite)
	if err != nil {
		return nil, err, true
	}
	if sp.prot&ProtWrite == 0 {
		s.fault(sp, id, a, AccessWrite)
	}
	if sp.priv == nil {
		s.ensurePrivate(sp, id)
	}
	// A store of at most 8 bytes touches at most two words; the usual
	// case, both already logged, is two bit tests.
	w0, w1 := po>>3, (po+n-1)>>3
	if sp.logged[w0>>6]&(1<<(w0&63)) == 0 || sp.logged[w1>>6]&(1<<(w1&63)) == 0 {
		sp.logRange(w0, w1)
	}
	return sp.priv[po : po+n], nil, true
}

// LoadU8 reads one byte.
func (s *Space) LoadU8(a Addr) (uint8, error) {
	if sp, po, err, ok := s.fastReadPage(a, 1); ok {
		if err != nil {
			return 0, err
		}
		if sp.priv != nil {
			return sp.priv[po], nil
		}
		var buf [1]byte
		if err := sp.backing.ReadAt(a, buf[:]); err != nil {
			return 0, err
		}
		return buf[0], nil
	}
	var buf [1]byte
	if err := s.Read(a, buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// StoreU8 writes one byte.
func (s *Space) StoreU8(a Addr, v uint8) (int, error) {
	if dst, err, ok := s.fastWritePage(a, 1); ok {
		if err != nil {
			return 0, err
		}
		dst[0] = v
		return 0, nil
	}
	buf := [1]byte{v}
	return s.Write(a, buf[:])
}

// LoadU32 reads a little-endian uint32.
func (s *Space) LoadU32(a Addr) (uint32, error) {
	if sp, po, err, ok := s.fastReadPage(a, 4); ok {
		if err != nil {
			return 0, err
		}
		if sp.priv != nil {
			return binary.LittleEndian.Uint32(sp.priv[po : po+4]), nil
		}
		var buf [4]byte
		if err := sp.backing.ReadAt(a, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	var buf [4]byte
	if err := s.Read(a, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// StoreU32 writes a little-endian uint32.
func (s *Space) StoreU32(a Addr, v uint32) (int, error) {
	if dst, err, ok := s.fastWritePage(a, 4); ok {
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(dst, v)
		return 0, nil
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return s.Write(a, buf[:])
}

// LoadU64 reads a little-endian uint64.
func (s *Space) LoadU64(a Addr) (uint64, error) {
	if sp, po, err, ok := s.fastReadPage(a, 8); ok {
		if err != nil {
			return 0, err
		}
		if sp.priv != nil {
			return binary.LittleEndian.Uint64(sp.priv[po : po+8]), nil
		}
		var buf [8]byte
		if err := sp.backing.ReadAt(a, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	var buf [8]byte
	if err := s.Read(a, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// StoreU64 writes a little-endian uint64.
func (s *Space) StoreU64(a Addr, v uint64) (int, error) {
	if dst, err, ok := s.fastWritePage(a, 8); ok {
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(dst, v)
		return 0, nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Write(a, buf[:])
}

// LoadF64 reads a little-endian float64.
func (s *Space) LoadF64(a Addr) (float64, error) {
	v, err := s.LoadU64(a)
	return math.Float64frombits(v), err
}

// StoreF64 writes a little-endian float64.
func (s *Space) StoreF64(a Addr, v float64) (int, error) {
	return s.StoreU64(a, math.Float64bits(v))
}
