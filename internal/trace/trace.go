// Package trace implements the paper's measurement logging pipeline
// (§4.1): every node logs each probe packet it sends and receives with a
// random 64-bit identifier and timestamps; logs are pushed to a central
// machine, merged, and post-processed — receives are matched to sends
// within one hour, and probes aimed at hosts that had stopped sending for
// more than 90 seconds are disregarded as host (not network) failures.
package trace

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/route"
)

// Kind distinguishes send from receive records.
type Kind uint8

// Record kinds.
const (
	// KindSend logs a probe packet leaving its origin.
	KindSend Kind = 1
	// KindRecv logs a probe packet arriving at its target. A
	// round-trip campaign (RONwide) stamps it when the response is back
	// at the origin, so the latency a match derives is the RTT.
	KindRecv Kind = 2
)

// NoNode is the Via of a copy sent on the direct path.
const NoNode uint16 = 0xFFFF

// Record is one log line: a probe packet observed at a host.
type Record struct {
	Kind Kind
	// Node is the logging host.
	Node uint16
	// Peer is the other endpoint: the target for sends, the origin for
	// receives.
	Peer uint16
	// ProbeID is the probe's 64-bit identifier, shared by its copies.
	ProbeID uint64
	// Time is the host-local timestamp in nanoseconds.
	Time int64
	// Method indexes the campaign's method list.
	Method uint8
	// Tactic is the copy's routing tactic.
	Tactic route.Tactic
	// CopyIndex and Copies describe the probe's packet pair structure.
	CopyIndex uint8
	Copies    uint8
	// Via is the intermediate used, or NoNode.
	Via uint16
}

// recordLen is the fixed encoded record size.
const recordLen = 1 + 2 + 2 + 8 + 8 + 1 + 1 + 1 + 1 + 2 + 1 // +1 pad = 28

// fileMagic begins every trace file.
var fileMagic = []byte("RONTRCE1")

// Writer appends records to a stream in the binary trace format.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter writes the file header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(fileMagic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Append writes one record.
func (tw *Writer) Append(r Record) error {
	if tw.err != nil {
		return tw.err
	}
	var buf [recordLen]byte
	buf[0] = byte(r.Kind)
	be16(buf[1:], r.Node)
	be16(buf[3:], r.Peer)
	be64(buf[5:], r.ProbeID)
	be64(buf[13:], uint64(r.Time))
	buf[21] = r.Method
	buf[22] = byte(r.Tactic)
	buf[23] = r.CopyIndex
	buf[24] = r.Copies
	be16(buf[25:], r.Via)
	if _, err := tw.w.Write(buf[:]); err != nil {
		tw.err = err
		return err
	}
	tw.n++
	return nil
}

// Count returns how many records have been appended.
func (tw *Writer) Count() int64 { return tw.n }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// ErrBadTrace indicates a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace file")

// ReadAll parses an entire trace stream.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(magic) != string(fileMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var out []Record
	var buf [recordLen]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
		}
		rec := Record{
			Kind:      Kind(buf[0]),
			Node:      rd16(buf[1:]),
			Peer:      rd16(buf[3:]),
			ProbeID:   rd64(buf[5:]),
			Time:      int64(rd64(buf[13:])),
			Method:    buf[21],
			Tactic:    route.Tactic(buf[22]),
			CopyIndex: buf[23],
			Copies:    buf[24],
			Via:       rd16(buf[25:]),
		}
		if rec.Kind != KindSend && rec.Kind != KindRecv {
			return nil, fmt.Errorf("%w: bad kind %d", ErrBadTrace, buf[0])
		}
		if !rec.Tactic.Valid() {
			return nil, fmt.Errorf("%w: bad tactic %d", ErrBadTrace, buf[22])
		}
		if buf[recordLen-1] != 0 {
			return nil, fmt.Errorf("%w: nonzero pad byte %d", ErrBadTrace, buf[recordLen-1])
		}
		out = append(out, rec)
	}
}

// Merge combines per-node record slices into one stream sorted by time
// (stable across equal timestamps).
func Merge(logs ...[]Record) []Record {
	out := slices.Concat(logs...)
	slices.SortStableFunc(out, func(a, b Record) int { return cmp.Compare(a.Time, b.Time) })
	return out
}

func be16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func be64(b []byte, v uint64) {
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
func rd16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func rd64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 |
		uint64(b[3])<<32 | uint64(b[4])<<24 | uint64(b[5])<<16 |
		uint64(b[6])<<8 | uint64(b[7])
}

// The §4.1 post-processor's two constants, the paper's values.
const (
	// receiveWindow is how long after its send a receive still counts
	// ("finds all probes that were received within 1 hour").
	receiveWindow = time.Hour
	// hostFailureGap is the send-silence beyond which a host is
	// considered down ("a host to have failed if it stops sending
	// probes for more than 90 seconds"); probes aimed at a failed host
	// are disregarded.
	hostFailureGap = 90 * time.Second
)

// AppendProbe appends the §4.1 log records of one measurement probe to
// dst and returns the extended slice: for each copy its send, then its
// receive if the copy was delivered. The receive is stamped at the send
// time plus the copy's measured latency — when the response is back, in
// a round-trip campaign — so Match, its inverse, recovers the probe's
// observation exactly.
func AppendProbe(dst []Record, p *analysis.Probe) []Record {
	o := &p.Observation
	for i := 0; i < o.Copies; i++ {
		r := Record{Kind: KindSend, Node: uint16(o.Src), Peer: uint16(o.Dst), ProbeID: p.ID,
			Time: p.Sent[i], Method: uint8(o.Method), Tactic: route.Tactic(p.Tactic[i]),
			CopyIndex: uint8(i), Copies: uint8(o.Copies), Via: NoNode}
		if p.Via[i] >= 0 {
			r.Via = uint16(p.Via[i])
		}
		dst = append(dst, r)
		if !o.Lost[i] {
			r.Kind, r.Node, r.Peer = KindRecv, r.Peer, r.Node
			r.Time += int64(o.Lat[i])
			dst = append(dst, r)
		}
	}
	return dst
}

// Match post-processes a merged record stream into probe observations:
// per-probe copies are matched to receives, losses inferred, and probes
// aimed at failed hosts dropped. nHosts bounds node indices.
func Match(records []Record, nHosts int) []analysis.Observation {
	// Collect each host's send activity for the failure filter.
	sendTimes := make([][]int64, nHosts)
	for _, r := range records {
		if r.Kind == KindSend && int(r.Node) < nHosts {
			sendTimes[r.Node] = append(sendTimes[r.Node], r.Time)
		}
	}
	for _, ts := range sendTimes {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	// hostAlive reports whether the host was sending probes around t:
	// its nearest send activity is within the failure gap.
	hostAlive := func(h int, t int64) bool {
		ts := sendTimes[h]
		if len(ts) == 0 {
			return false
		}
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
		gap := int64(hostFailureGap)
		if i < len(ts) && ts[i]-t <= gap {
			return true
		}
		if i > 0 && t-ts[i-1] <= gap {
			return true
		}
		return false
	}

	type copyState struct {
		sent   int64
		recvAt int64 // 0 = not received
		have   bool
	}
	type probeState struct {
		src, dst int
		method   uint8
		copies   int
		first    int64
		c        [2]copyState
	}
	probes := make(map[uint64]*probeState)
	var order []uint64

	for _, r := range records {
		if int(r.Node) >= nHosts || int(r.Peer) >= nHosts {
			continue
		}
		switch r.Kind {
		case KindSend:
			ps, ok := probes[r.ProbeID]
			if !ok {
				ps = &probeState{
					src:    int(r.Node),
					dst:    int(r.Peer),
					method: r.Method,
					first:  r.Time,
				}
				probes[r.ProbeID] = ps
				order = append(order, r.ProbeID)
			}
			if int(r.Copies) > ps.copies {
				ps.copies = int(r.Copies)
			}
			if r.CopyIndex < 2 {
				ps.c[r.CopyIndex].sent = r.Time
				ps.c[r.CopyIndex].have = true
			}
		case KindRecv:
			ps, ok := probes[r.ProbeID]
			if !ok || r.CopyIndex >= 2 {
				continue
			}
			cs := &ps.c[r.CopyIndex]
			if cs.have && cs.recvAt == 0 &&
				r.Time-cs.sent <= int64(receiveWindow) && r.Time >= cs.sent {
				cs.recvAt = r.Time
			}
		}
	}

	var out []analysis.Observation
	for _, id := range order {
		ps := probes[id]
		if ps.copies == 0 || ps.copies > 2 || ps.src == ps.dst {
			continue
		}
		// §4.1: disregard probes lost because the target host was down
		// rather than the network.
		if !hostAlive(ps.dst, ps.first) {
			continue
		}
		o := analysis.Observation{
			Method: int(ps.method),
			Src:    ps.src,
			Dst:    ps.dst,
			Time:   ps.first,
			Copies: ps.copies,
		}
		valid := true
		for i := 0; i < ps.copies; i++ {
			cs := ps.c[i]
			if !cs.have {
				valid = false
				break
			}
			if cs.recvAt == 0 {
				o.Lost[i] = true
			} else {
				o.Lat[i] = time.Duration(cs.recvAt - cs.sent)
			}
		}
		if valid {
			out = append(out, o)
		}
	}
	return out
}
