package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: 1, Flags: 0xA5A5, Src: 3, Dst: 17}
	b := h.AppendTo(nil)
	if len(b) != HeaderLen {
		t.Fatalf("encoded header length = %d, want %d", len(b), HeaderLen)
	}
	// Patch the length so decode's consistency check passes.
	putU16(b[6:], uint16(len(b)))
	var got Header
	if err := got.DecodeFromBytes(b); err != nil {
		t.Fatalf("DecodeFromBytes: %v", err)
	}
	if got.Type != h.Type || got.Flags != h.Flags || got.Src != h.Src || got.Dst != h.Dst {
		t.Errorf("round trip mismatch: got %+v want %+v", got, h)
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	h := Header{Type: 3, Src: 1, Dst: 2}
	good := h.AppendTo(nil)
	putU16(good[6:], uint16(len(good)))

	tests := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrTooShort},
		{"empty", func(b []byte) []byte { return nil }, ErrTooShort},
		{"magic", func(b []byte) []byte { b[0] = 0; return b }, ErrBadMagic},
		{"version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"length", func(b []byte) []byte { putU16(b[6:], 999); return b }, ErrBadLength},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			var got Header
			err := got.DecodeFromBytes(b)
			if !errors.Is(err, tc.want) {
				t.Errorf("DecodeFromBytes = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestBuildOpenRoundTrip(t *testing.T) {
	body := []byte("probe body: id, timestamp, tactic")
	pkt, err := Build(Header{Type: 1, Src: 4, Dst: 5}, body)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h, got, err := Open(pkt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h.Type != 1 || h.Src != 4 || h.Dst != 5 {
		t.Errorf("header = %+v", h)
	}
	if int(h.Length) != len(pkt) {
		t.Errorf("length = %d, want %d", h.Length, len(pkt))
	}
	if !bytes.Equal(got, body) {
		t.Errorf("body mismatch: got %q want %q", got, body)
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	pkt, err := Build(Header{Type: 1, Src: 4, Dst: 5}, []byte{7, 0, 0, 1, 0xFF})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Flip each byte in turn (length bytes fail earlier with
	// ErrBadLength); Open must never accept a corrupted packet.
	for i := 0; i < len(pkt); i++ {
		mut := append([]byte(nil), pkt...)
		mut[i] ^= 0x40
		if _, _, err := Open(mut); err == nil {
			t.Errorf("Open accepted datagram with byte %d corrupted", i)
		}
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	if _, err := Build(Header{Type: 3}, make([]byte, MaxPacketLen)); !errors.Is(err, ErrTooLong) {
		t.Errorf("Build oversize: err = %v, want ErrTooLong", err)
	}
}

func TestBuildIntoReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	pkt, err := BuildInto(buf, Header{Type: 5}, []byte{0, 0, 0, 1})
	if err != nil {
		t.Fatalf("BuildInto: %v", err)
	}
	if &pkt[0] != &buf[:1][0] {
		t.Error("BuildInto did not reuse the provided buffer")
	}
}

func TestChecksumProperties(t *testing.T) {
	// Verifying the checksum of any finished packet must succeed.
	f := func(payload []byte, src, dst uint16) bool {
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		pkt, err := Build(Header{Type: 3, Src: src, Dst: dst}, payload)
		if err != nil {
			return false
		}
		return VerifyChecksum(pkt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
