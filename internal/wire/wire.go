// Package wire is the overlay datagram framing the deleted live overlay
// spoke: a fixed 16-byte big-endian header with an explicit length and a
// 16-bit one's-complement checksum, wrapped around an opaque body so a
// datagram fits one UDP packet. The message bodies (probes, data,
// link-state gossip) went with the overlay; nothing in the repo imports
// this package.
package wire

import (
	"errors"
	"fmt"
)

const (
	Magic        uint16 = 0x524E // "RN", the first two bytes of every datagram
	Version      uint8  = 1      // the protocol version emitted and accepted
	HeaderLen           = 16     // encoded size of Header
	MaxPacketLen        = 1400   // whole-datagram bound, under typical path MTUs
)

// Errors returned by the codec.
var (
	ErrTooShort    = errors.New("wire: buffer too short")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrBadLength   = errors.New("wire: length field mismatch")
	ErrTooLong     = errors.New("wire: message exceeds maximum packet length")
)

// Header is the fixed 16-byte prefix of every overlay datagram.
//
// Layout (big endian):
//
//	0  uint16 magic
//	2  uint8  version
//	3  uint8  type
//	4  uint16 flags
//	6  uint16 length (total datagram length including header)
//	8  uint16 checksum (one's complement sum over the whole datagram
//	          with this field zeroed)
//	10 uint16 reserved (must be zero)
//	12 uint16 src node id
//	14 uint16 dst node id
type Header struct {
	Type   uint8
	Flags  uint16
	Length uint16
	Src    uint16
	Dst    uint16
}

// AppendTo serializes the header onto b and returns the extended slice.
// The length and checksum fields are written as zero; Build patches them
// once the full datagram has been assembled.
func (h *Header) AppendTo(b []byte) []byte {
	b = appendU16(b, Magic)
	b = append(b, Version, h.Type)
	b = appendU16(b, h.Flags)
	b = appendU16(b, h.Length)
	b = appendU16(b, 0) // checksum
	b = appendU16(b, 0) // reserved
	b = appendU16(b, h.Src)
	return appendU16(b, h.Dst)
}

// DecodeFromBytes parses the header from the front of b. It validates
// magic, version, and that the length field matches len(b); it does not
// verify the checksum (Open does).
func (h *Header) DecodeFromBytes(b []byte) error {
	if len(b) < HeaderLen {
		return ErrTooShort
	}
	if getU16(b[0:]) != Magic {
		return ErrBadMagic
	}
	if b[2] != Version {
		return fmt.Errorf("%w: got %d want %d", ErrBadVersion, b[2], Version)
	}
	h.Type = b[3]
	h.Flags = getU16(b[4:])
	h.Length = getU16(b[6:])
	if int(h.Length) != len(b) {
		return fmt.Errorf("%w: header says %d, datagram is %d bytes",
			ErrBadLength, h.Length, len(b))
	}
	h.Src = getU16(b[12:])
	h.Dst = getU16(b[14:])
	return nil
}

// Build assembles a complete datagram: header, body, patched length and
// checksum.
func Build(h Header, body []byte) ([]byte, error) {
	return BuildInto(make([]byte, 0, HeaderLen+len(body)), h, body)
}

// BuildInto is like Build but reuses buf's storage when it is large
// enough.
func BuildInto(buf []byte, h Header, body []byte) ([]byte, error) {
	b := append(h.AppendTo(buf[:0]), body...)
	if len(b) > MaxPacketLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLong, len(b))
	}
	putU16(b[6:], uint16(len(b)))
	putU16(b[8:], checksum(b))
	return b, nil
}

// Open validates a received datagram (magic, version, length, checksum)
// and returns its parsed header and body bytes. The body slice aliases b.
func Open(b []byte) (Header, []byte, error) {
	var h Header
	if err := h.DecodeFromBytes(b); err != nil {
		return Header{}, nil, err
	}
	if !VerifyChecksum(b) {
		return Header{}, nil, ErrBadChecksum
	}
	return h, b[HeaderLen:], nil
}

// VerifyChecksum reports whether the datagram's checksum field matches its
// contents.
func VerifyChecksum(b []byte) bool {
	return len(b) >= HeaderLen && checksum(b) == getU16(b[8:])
}

// checksum computes the 16-bit one's-complement checksum (RFC 1071
// style) over b, reading the checksum field at offset 8 as zero.
func checksum(b []byte) uint16 {
	var sum uint32
	i := 0
	for ; i+1 < len(b); i += 2 {
		if i != 8 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
	}
	if i < len(b) {
		sum += uint32(b[i]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func getU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func putU16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
