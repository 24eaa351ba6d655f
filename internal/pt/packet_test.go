package pt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIPCompressionCodes(t *testing.T) {
	tests := []struct {
		name     string
		target   uint64
		lastIP   uint64
		wantCode byte
		wantLen  int
	}{
		{"same ip", 0x400000, 0x400000, 0, 0},
		{"low 16 differ", 0x400010, 0x400000, 1, 2},
		{"low 32 differ", 0x1400010, 0x400000, 2, 4},
		{"low 48 differ", 0x10_0000_0010, 0x400000, 3, 6},
		{"full", 0x8000_0000_0000_0010, 0x400000, 6, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, payload := ipCompress(tt.target, tt.lastIP)
			if code != tt.wantCode || len(payload) != tt.wantLen {
				t.Errorf("code=%d len=%d, want %d/%d", code, len(payload), tt.wantCode, tt.wantLen)
			}
			got := ipDecompress(code, payload, tt.lastIP)
			if got != tt.target {
				t.Errorf("decompress = %#x, want %#x", got, tt.target)
			}
		})
	}
}

func TestQuickIPCompressionRoundTrip(t *testing.T) {
	f := func(target, last uint64) bool {
		code, payload := ipCompress(target, last)
		return ipDecompress(code, payload, last) == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTNTEncodingRoundTrip(t *testing.T) {
	cases := [][]bool{
		{true},
		{false},
		{true, false, true},
		{true, true, true, true, true, true}, // max short
		{false, false, false, false, false, false, false}, // long
		make([]bool, 47), // max long
	}
	for i := range cases[5] {
		cases[5][i] = i%3 == 0
	}
	for _, bits := range cases {
		buf, err := appendTNTBools(nil, bits)
		if err != nil {
			t.Fatalf("appendTNTBools(%v): %v", bits, err)
		}
		p, _, err := DecodePacket(buf, 0)
		if err != nil {
			t.Fatalf("DecodePacket: %v", err)
		}
		if p.Type != PktTNT {
			t.Fatalf("type = %v", p.Type)
		}
		got := p.TNTBits()
		if len(got) != len(bits) {
			t.Fatalf("got %d bits, want %d", len(got), len(bits))
		}
		for j := range bits {
			if got[j] != bits[j] {
				t.Errorf("bit %d = %v, want %v", j, got[j], bits[j])
			}
			if p.TNTBit(j) != bits[j] {
				t.Errorf("TNTBit(%d) = %v, want %v", j, p.TNTBit(j), bits[j])
			}
		}
		if len(bits) <= 6 && len(buf) != 1 {
			t.Errorf("short TNT length = %d, want 1", len(buf))
		}
	}
}

func TestTNTTooManyBits(t *testing.T) {
	if _, err := appendTNTBools(nil, make([]bool, 48)); !errors.Is(err, ErrTooMany) {
		t.Errorf("48 bits: err = %v", err)
	}
}

func TestTNTEmptyIsNoop(t *testing.T) {
	buf, err := appendTNTBools([]byte{0xAA}, nil)
	if err != nil || len(buf) != 1 {
		t.Errorf("empty TNT: buf=%v err=%v", buf, err)
	}
}

func TestQuickTNTRoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8%47) + 1
		bits := make([]bool, n)
		var packed uint64
		for i := range bits {
			bits[i] = r.Intn(2) == 1
			packed <<= 1
			if bits[i] {
				packed |= 1
			}
		}
		buf, err := appendTNTBools(nil, bits)
		if err != nil {
			return false
		}
		// The packed form must produce byte-identical wire output.
		buf2, err := appendTNT(nil, packed, n)
		if err != nil || !bytes.Equal(buf, buf2) {
			return false
		}
		p, _, err := DecodePacket(buf, 0)
		if err != nil || p.Type != PktTNT || p.TNTLen != n {
			return false
		}
		for i := range bits {
			if p.TNTBit(i) != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickTNTPackedMatchesReference pins the packed extraction against
// the retained []bool reference decoder for every possible payload value.
func TestQuickTNTPackedMatchesReference(t *testing.T) {
	f := func(v uint64) bool {
		v &= 1<<48 - 1 // long TNT payloads carry at most 47 bits + stop
		ref := tntBitsRef(v)
		bits, n := tntUnpack(v)
		if n != len(ref) {
			return false
		}
		p := Packet{Type: PktTNT, TNT: bits, TNTLen: n}
		for i, b := range ref {
			if p.TNTBit(i) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickIPPacketMatchesReference pins the in-place IP packet append
// against the allocating ipCompress reference. Independent random pairs
// would almost never share high bits, so each trial also derives lastIP
// values from the target by perturbing only the bits below each
// compression boundary — every 0/2/4/6/8-byte branch is exercised every
// run.
func TestQuickIPPacketMatchesReference(t *testing.T) {
	check := func(target, last uint64) bool {
		code, payload := ipCompress(target, last)
		want := append([]byte{code<<5 | tipSubTIP}, payload...)
		got, newIP := appendIPPacket(nil, tipSubTIP, target, last)
		return newIP == target && bytes.Equal(got, want)
	}
	f := func(target, perturb uint64) bool {
		for _, last := range []uint64{
			target,                            // code 0: unchanged
			target ^ perturb&0xFFFF,           // code 1: low 16 differ
			target ^ perturb&0xFFFF_FFFF,      // code 2: low 32 differ
			target ^ perturb&0xFFFF_FFFF_FFFF, // code 3: low 48 differ
			perturb,                           // code 6: anything
		} {
			if !check(target, last) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPSBRoundTrip(t *testing.T) {
	buf := appendPSB(nil)
	if len(buf) != psbLen {
		t.Fatalf("PSB length = %d, want %d", len(buf), psbLen)
	}
	p, ip, err := DecodePacket(buf, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != PktPSB || p.Len != psbLen {
		t.Errorf("packet = %+v", p)
	}
	if ip != 0 {
		t.Errorf("PSB must reset lastIP, got %#x", ip)
	}
}

func TestTSCRoundTrip(t *testing.T) {
	buf := appendTSC(nil, 0x123456789ABC)
	p, _, err := DecodePacket(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != PktTSC || p.TSC != 0x123456789ABC {
		t.Errorf("packet = %+v", p)
	}
}

func TestTSCTruncatesTo56Bits(t *testing.T) {
	buf := appendTSC(nil, 0xFF_12345678_9ABCDE)
	p, _, err := DecodePacket(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.TSC != 0x12345678_9ABCDE {
		t.Errorf("TSC = %#x, want 56-bit truncation", p.TSC)
	}
}

func TestTIPFamilyRoundTrip(t *testing.T) {
	subs := []struct {
		sub  byte
		want PacketType
	}{
		{tipSubTIP, PktTIP},
		{tipSubPGE, PktTIPPGE},
		{tipSubPGD, PktTIPPGD},
		{tipSubFUP, PktFUP},
	}
	for _, s := range subs {
		buf, newIP := appendIPPacket(nil, s.sub, 0x400123, 0x400000)
		if newIP != 0x400123 {
			t.Errorf("lastIP after append = %#x", newIP)
		}
		p, ip, err := DecodePacket(buf, 0x400000)
		if err != nil {
			t.Fatalf("%v: %v", s.want, err)
		}
		if p.Type != s.want || p.IP != 0x400123 || ip != 0x400123 {
			t.Errorf("%v: packet=%+v ip=%#x", s.want, p, ip)
		}
	}
}

func TestDecodeSpecials(t *testing.T) {
	// PAD
	p, _, err := DecodePacket([]byte{0x00}, 0)
	if err != nil || p.Type != PktPAD {
		t.Errorf("PAD: %+v %v", p, err)
	}
	// PSBEND
	p, _, err = DecodePacket([]byte{0x02, 0x23}, 0)
	if err != nil || p.Type != PktPSBEND {
		t.Errorf("PSBEND: %+v %v", p, err)
	}
	// OVF
	p, _, err = DecodePacket([]byte{0x02, 0xF3}, 0)
	if err != nil || p.Type != PktOVF {
		t.Errorf("OVF: %+v %v", p, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodePacket(nil, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: %v", err)
	}
	if _, _, err := DecodePacket([]byte{0x19, 0x01}, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("short TSC: %v", err)
	}
	if _, _, err := DecodePacket([]byte{0x02}, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("lone ext: %v", err)
	}
	if _, _, err := DecodePacket([]byte{0x02, 0x99}, 0); !errors.Is(err, ErrBadPacket) {
		t.Errorf("bad ext: %v", err)
	}
	// TIP wanting 8 payload bytes but only 2 present.
	if _, _, err := DecodePacket([]byte{6<<5 | tipSubTIP, 0x01, 0x02}, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("short TIP: %v", err)
	}
	// Broken PSB pattern.
	bad := appendPSB(nil)
	bad[7] = 0x00
	if _, _, err := DecodePacket(bad, 0); !errors.Is(err, ErrBadPacket) {
		t.Errorf("broken PSB: %v", err)
	}
}

func TestPacketTypeString(t *testing.T) {
	all := []PacketType{PktPAD, PktPSB, PktPSBEND, PktOVF, PktTNT, PktTIP, PktTIPPGE, PktTIPPGD, PktFUP, PktTSC}
	for _, ty := range all {
		if ty.String() == "UNKNOWN" {
			t.Errorf("type %d renders UNKNOWN", ty)
		}
	}
	if PacketType(99).String() != "UNKNOWN" {
		t.Error("unknown type should render UNKNOWN")
	}
}

// TNTBits materializes the packed TNT payload as a []bool, oldest
// first — the reference representation; hot paths consume TNT/TNTLen
// directly.
func (p Packet) TNTBits() []bool {
	if p.TNTLen == 0 {
		return nil
	}
	bits := make([]bool, p.TNTLen)
	for i := range bits {
		bits[i] = p.TNTBit(i)
	}
	return bits
}

// appendTNTBools is the reference []bool form of appendTNT, retained for
// the representation-equivalence property tests.
func appendTNTBools(dst []byte, bits []bool) ([]byte, error) {
	var v uint64
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return appendTNT(dst, v, len(bits))
}

// tntBitsRef extracts TNT bits (oldest first) from the packed payload
// value as a []bool — the reference decoder form, used by property tests
// to pin the packed representation.
func tntBitsRef(v uint64) []bool {
	if v == 0 {
		return nil
	}
	top := 63
	for top > 0 && v>>(uint(top))&1 == 0 {
		top--
	}
	bits := make([]bool, top)
	for i := 0; i < top; i++ {
		bits[i] = v>>(uint(top-1-i))&1 == 1
	}
	return bits
}
