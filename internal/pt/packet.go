package pt

import (
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
)

// PacketType enumerates the packet kinds this model generates.
type PacketType uint8

// Packet types.
const (
	PktPAD PacketType = iota + 1
	PktPSB
	PktPSBEND
	PktOVF
	PktTNT
	PktTIP
	PktTIPPGE
	PktTIPPGD
	PktFUP
	PktTSC
)

// String names the packet type as the Intel tooling does.
func (t PacketType) String() string {
	switch t {
	case PktPAD:
		return "PAD"
	case PktPSB:
		return "PSB"
	case PktPSBEND:
		return "PSBEND"
	case PktOVF:
		return "OVF"
	case PktTNT:
		return "TNT"
	case PktTIP:
		return "TIP"
	case PktTIPPGE:
		return "TIP.PGE"
	case PktTIPPGD:
		return "TIP.PGD"
	case PktFUP:
		return "FUP"
	case PktTSC:
		return "TSC"
	default:
		return "UNKNOWN"
	}
}

// Packet is one decoded packet.
type Packet struct {
	Type PacketType
	// IP is the reconstructed instruction pointer for TIP/FUP family
	// packets (after last-IP decompression).
	IP uint64
	// TNT packs the taken/not-taken payload of TNT packets: the oldest
	// bit sits at position TNTLen-1, the newest at bit 0 — exactly the
	// wire payload below the stop bit. Decoding a packet never
	// materializes a []bool; consumers shift bits out of this word.
	TNT uint64
	// TNTLen is the number of valid bits in TNT.
	TNTLen int
	// TSC is the timestamp payload for TSC packets.
	TSC uint64
	// Len is the encoded length in bytes.
	Len int
}

// TNTBit returns TNT bit i, oldest first.
func (p Packet) TNTBit(i int) bool {
	return p.TNT>>uint(p.TNTLen-1-i)&1 == 1
}

// Opcode bytes and TIP-family sub-opcodes.
const (
	opPad        = 0x00
	opExt        = 0x02 // extended-opcode escape
	extPSB       = 0x82
	extPSBEND    = 0x23
	extOVF       = 0xF3
	extLongTNT   = 0xA3
	opTSC        = 0x19
	tipSubTIP    = 0x0D
	tipSubPGE    = 0x11
	tipSubPGD    = 0x01
	tipSubFUP    = 0x1D
	tipSubMask   = 0x1F
	psbLen       = 16
	longTNTLen   = 8 // 2 header + 6 payload
	tscLen       = 8 // 1 header + 7 payload
	maxShortBits = 6
	maxLongBits  = 47
)

// Errors returned by the packet layer.
var (
	ErrTruncated = errors.New("pt: truncated packet")
	ErrBadPacket = errors.New("pt: malformed packet")
	ErrTooMany   = errors.New("pt: too many TNT bits for one packet")
)

// ipCompress selects the smallest IPBytes code able to carry target given
// lastIP, returning the code and payload bytes.
func ipCompress(target, lastIP uint64) (code byte, payload []byte) {
	if target == lastIP {
		return 0, nil
	}
	switch {
	case target>>16 == lastIP>>16:
		p := make([]byte, 2)
		binary.LittleEndian.PutUint16(p, uint16(target))
		return 1, p
	case target>>32 == lastIP>>32:
		p := make([]byte, 4)
		binary.LittleEndian.PutUint32(p, uint32(target))
		return 2, p
	case target>>48 == lastIP>>48:
		p := make([]byte, 6)
		binary.LittleEndian.PutUint16(p, uint16(target))
		binary.LittleEndian.PutUint32(p[2:], uint32(target>>16))
		return 3, p
	default:
		p := make([]byte, 8)
		binary.LittleEndian.PutUint64(p, target)
		return 6, p
	}
}

// ipPayloadLen returns the payload byte count for an IPBytes code.
func ipPayloadLen(code byte) (int, error) {
	switch code {
	case 0:
		return 0, nil
	case 1:
		return 2, nil
	case 2:
		return 4, nil
	case 3:
		return 6, nil
	case 6:
		return 8, nil
	default:
		return 0, fmt.Errorf("%w: IPBytes code %d", ErrBadPacket, code)
	}
}

// ipDecompress reconstructs the full IP from a compressed payload and the
// decoder's last IP.
func ipDecompress(code byte, payload []byte, lastIP uint64) uint64 {
	switch code {
	case 0:
		return lastIP
	case 1:
		return lastIP&^uint64(0xFFFF) | uint64(binary.LittleEndian.Uint16(payload))
	case 2:
		return lastIP&^uint64(0xFFFF_FFFF) | uint64(binary.LittleEndian.Uint32(payload))
	case 3:
		low := uint64(binary.LittleEndian.Uint16(payload))
		mid := uint64(binary.LittleEndian.Uint32(payload[2:]))
		return lastIP&^uint64(0xFFFF_FFFF_FFFF) | mid<<16 | low
	default: // 6
		return binary.LittleEndian.Uint64(payload)
	}
}

// appendIPPacket appends a TIP-family packet for target to dst and returns
// the extended buffer plus the new lastIP. The payload bytes are appended
// in place — no intermediate slice — so the per-branch emit path stays
// allocation-free; ipCompress remains the reference form.
func appendIPPacket(dst []byte, sub byte, target, lastIP uint64) ([]byte, uint64) {
	switch {
	case target == lastIP:
		dst = append(dst, 0<<5|sub)
	case target>>16 == lastIP>>16:
		dst = append(dst, 1<<5|sub, byte(target), byte(target>>8))
	case target>>32 == lastIP>>32:
		dst = append(dst, 2<<5|sub,
			byte(target), byte(target>>8), byte(target>>16), byte(target>>24))
	case target>>48 == lastIP>>48:
		dst = append(dst, 3<<5|sub,
			byte(target), byte(target>>8), byte(target>>16), byte(target>>24),
			byte(target>>32), byte(target>>40))
	default:
		dst = append(dst, 6<<5|sub,
			byte(target), byte(target>>8), byte(target>>16), byte(target>>24),
			byte(target>>32), byte(target>>40), byte(target>>48), byte(target>>56))
	}
	return dst, target
}

// appendTNT appends a TNT packet carrying the n oldest-first bits packed
// in v (oldest at bit n-1). It chooses the short form when the bits fit
// in one byte. Returns an error if more than maxLongBits are supplied.
func appendTNT(dst []byte, v uint64, n int) ([]byte, error) {
	if n == 0 {
		return dst, nil
	}
	if n > maxLongBits {
		return dst, ErrTooMany
	}
	w := v | 1<<uint(n) // stop bit above the oldest payload bit
	if n <= maxShortBits {
		return append(dst, byte(w<<1)), nil
	}
	dst = append(dst, opExt, extLongTNT,
		byte(w), byte(w>>8), byte(w>>16), byte(w>>24), byte(w>>32), byte(w>>40))
	return dst, nil
}

// tntUnpack splits the wire payload value (stop bit above oldest) into
// the packed bits and their count.
func tntUnpack(v uint64) (bits uint64, n int) {
	top := mathbits.Len64(v) - 1 // stop-bit position
	if top < 0 {
		return 0, 0
	}
	return v &^ (1 << uint(top)), top
}

// appendPSB appends the 16-byte PSB pattern.
func appendPSB(dst []byte) []byte {
	for i := 0; i < psbLen/2; i++ {
		dst = append(dst, opExt, extPSB)
	}
	return dst
}

// appendTSC appends a TSC packet with the low 56 bits of ts.
func appendTSC(dst []byte, ts uint64) []byte {
	dst = append(dst, opTSC)
	for i := 0; i < 7; i++ {
		dst = append(dst, byte(ts>>(8*i)))
	}
	return dst
}

// DecodePacket parses the packet at the head of buf given the decoder's
// current lastIP, returning the packet and the updated lastIP.
func DecodePacket(buf []byte, lastIP uint64) (Packet, uint64, error) {
	if len(buf) == 0 {
		return Packet{}, lastIP, ErrTruncated
	}
	b0 := buf[0]
	switch {
	case b0 == opPad:
		return Packet{Type: PktPAD, Len: 1}, lastIP, nil
	case b0 == opTSC:
		if len(buf) < tscLen {
			return Packet{}, lastIP, ErrTruncated
		}
		var ts uint64
		for i := 0; i < 7; i++ {
			ts |= uint64(buf[1+i]) << (8 * i)
		}
		return Packet{Type: PktTSC, TSC: ts, Len: tscLen}, lastIP, nil
	case b0 == opExt:
		if len(buf) < 2 {
			return Packet{}, lastIP, ErrTruncated
		}
		switch buf[1] {
		case extPSB:
			if len(buf) < psbLen {
				return Packet{}, lastIP, ErrTruncated
			}
			for i := 0; i < psbLen; i += 2 {
				if buf[i] != opExt || buf[i+1] != extPSB {
					return Packet{}, lastIP, fmt.Errorf("%w: broken PSB pattern", ErrBadPacket)
				}
			}
			// PSB resets last-IP compression state.
			return Packet{Type: PktPSB, Len: psbLen}, 0, nil
		case extPSBEND:
			return Packet{Type: PktPSBEND, Len: 2}, lastIP, nil
		case extOVF:
			return Packet{Type: PktOVF, Len: 2}, lastIP, nil
		case extLongTNT:
			if len(buf) < longTNTLen {
				return Packet{}, lastIP, ErrTruncated
			}
			var v uint64
			for i := 0; i < 6; i++ {
				v |= uint64(buf[2+i]) << (8 * i)
			}
			bits, n := tntUnpack(v)
			return Packet{Type: PktTNT, TNT: bits, TNTLen: n, Len: longTNTLen}, lastIP, nil
		default:
			return Packet{}, lastIP, fmt.Errorf("%w: ext opcode %#x", ErrBadPacket, buf[1])
		}
	case b0&1 == 0:
		// Short TNT: bit0 = 0, payload in bits 7..1.
		v := uint64(b0 >> 1)
		if v == 0 {
			return Packet{}, lastIP, fmt.Errorf("%w: empty short TNT", ErrBadPacket)
		}
		bits, n := tntUnpack(v)
		return Packet{Type: PktTNT, TNT: bits, TNTLen: n, Len: 1}, lastIP, nil
	default:
		sub := b0 & tipSubMask
		var typ PacketType
		switch sub {
		case tipSubTIP:
			typ = PktTIP
		case tipSubPGE:
			typ = PktTIPPGE
		case tipSubPGD:
			typ = PktTIPPGD
		case tipSubFUP:
			typ = PktFUP
		default:
			return Packet{}, lastIP, fmt.Errorf("%w: opcode %#x", ErrBadPacket, b0)
		}
		code := b0 >> 5
		n, err := ipPayloadLen(code)
		if err != nil {
			return Packet{}, lastIP, err
		}
		if len(buf) < 1+n {
			return Packet{}, lastIP, ErrTruncated
		}
		ip := ipDecompress(code, buf[1:1+n], lastIP)
		return Packet{Type: typ, IP: ip, Len: 1 + n}, ip, nil
	}
}
