package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// SnapshotCodecVersion is the byte leading a serialized aggregator: the
// one codec version AppendBinary writes and UnmarshalAggregator accepts.
// Bump it on any layout change. The byte after it flags which optional
// sections follow the probe statistics.
const SnapshotCodecVersion = 5

// Section flags, the payload's second byte. A section is written only
// when the aggregator holds its data, so a probe-only campaign's payload
// has flags 0.
const (
	aggSectionWorkload   = 1 << 0 // FEC/path shape, per-variant frame counters, latency and per-stream loss runs
	aggSectionResilience = 1 << 1 // underlay outage count, per-scheme recovery counters and time-to-recovery runs
	aggSectionsKnown     = aggSectionWorkload | aggSectionResilience
)

// binWriter accumulates the little-endian snapshot payload.
type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *binWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// binReader consumes a snapshot payload, turning overruns into a sticky
// error instead of panics so truncated inputs fail cleanly.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("analysis: aggregator snapshot truncated at byte %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *binReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *binReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *binReader) i64() int64     { return int64(r.u64()) }
func (r *binReader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *binReader) str() string    { return string(r.take(int(r.u32()))) }
func (r *binReader) remaining() int { return len(r.buf) - r.off }

// Hosts returns the mesh size the aggregator was built for.
func (a *Aggregator) Hosts() int { return a.nHosts }

// AppendBinary appends the aggregator's complete statistical state to
// buf — per-path counters, pooled window samples, high-loss-hour
// tallies, and diurnal profiles — so a campaign's analysis can be
// persisted and later merged exactly (float sums round-trip
// bit-for-bit, so tables rebuilt from snapshots are byte-identical to
// in-process results). Per-cell snapshot writers reuse one encode
// buffer across cells instead of allocating a payload-sized temporary
// per finished cell.
//
// The aggregator is flushed first: in-progress windows contribute their
// samples and the window machinery resets, exactly as Merge would do.
// The encoding carries no integrity check of its own; wrap it in a
// checksummed container (see internal/core's cell snapshots) when
// writing to disk.
func (a *Aggregator) AppendBinary(buf []byte) ([]byte, error) {
	a.Flush()
	hasWL := a.wl != nil && a.wl.HasData()
	hasRes := a.res != nil && a.res.HasData()
	var sections uint8
	if hasWL {
		sections |= aggSectionWorkload
	}
	if hasRes {
		sections |= aggSectionResilience
	}
	w := &binWriter{buf: buf}
	w.u8(SnapshotCodecVersion)
	w.u8(sections)
	w.u32(uint32(len(a.methods)))
	w.u32(uint32(a.nHosts))
	for _, m := range a.methods {
		w.str(m)
	}
	for m := range a.methods {
		for pi := 0; pi < a.nPaths; pi++ {
			ps := a.stat(m, pi)
			w.i64(ps.probes)
			w.i64(ps.firstSent)
			w.i64(ps.firstLost)
			w.i64(ps.secondSent)
			w.i64(ps.secondLost)
			w.i64(ps.bothLost)
			w.i64(ps.effLost)
			w.f64(ps.latSumNS)
			w.i64(ps.latN)
			w.f64(ps.lat1SumNS)
			w.i64(ps.lat1N)
			w.f64(ps.lat2SumNS)
			w.i64(ps.lat2N)
		}
	}
	for m := range a.methods {
		w.cdfRuns(a.win20Rates[m])
	}
	w.u32(uint32(len(Table6Thresholds)))
	for m := range a.methods {
		for _, c := range a.hourCounts[m] {
			w.i64(c)
		}
		w.i64(a.hourPeriods[m])
	}
	w.f64(a.hourMaxRate)
	for m := range a.methods {
		for h := 0; h < 24; h++ {
			w.i64(a.hodSent[m][h])
		}
		for h := 0; h < 24; h++ {
			w.i64(a.hodLost[m][h])
		}
	}
	if hasWL {
		w.u32(uint32(a.wl.DataShards))
		w.u32(uint32(a.wl.ParityShards))
		w.u32(uint32(a.wl.Paths))
		for i := range a.wl.variants {
			v := &a.wl.variants[i]
			w.i64(v.FramesSent)
			w.i64(v.FramesDelivered)
			w.i64(v.ShardsSent)
			w.i64(v.ShardsDelivered)
			w.i64(v.ReconstructFailures)
			w.f64(v.latSumNS)
			w.i64(v.latN)
			w.cdfRuns(&v.latCDF)
			w.cdfRuns(&v.lossCDF)
		}
	}
	if hasRes {
		w.i64(a.res.UnderlayOutages)
		for i := range a.res.variants {
			v := &a.res.variants[i]
			w.i64(v.ProbesSent)
			w.i64(v.ProbesDelivered)
			w.i64(v.Masked)
			w.f64(v.ttrSumNS)
			w.i64(v.ttrN)
			w.cdfRuns(&v.ttrCDF)
		}
	}
	return w.buf, nil
}

// cdfRuns writes a CDF (the pooled window rates, the workload and
// resilience distributions) in run-length form: u32 run count, then
// (f64 value, i64 multiplicity) per run.
func (w *binWriter) cdfRuns(c *CDF) {
	w.u32(uint32(c.Distinct()))
	c.Runs(func(v float64, count int64) {
		w.f64(v)
		w.i64(count)
	})
}

// readCDFRuns restores a run-length CDF section written by cdfRuns.
func readCDFRuns(r *binReader, c *CDF) error {
	n := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if n < 0 || n*16 > r.remaining() {
		return fmt.Errorf("analysis: aggregator snapshot claims %d CDF runs with %d bytes left", n, r.remaining())
	}
	for i := 0; i < n; i++ {
		v := r.f64()
		count := r.i64()
		if count <= 0 {
			return fmt.Errorf("analysis: aggregator snapshot CDF run %d has non-positive count %d", i, count)
		}
		c.AddWeighted(v, count)
	}
	return r.err
}

// UnmarshalAggregator rebuilds an aggregator from AppendBinary output.
// The result is flushed (no in-progress windows) and ready to query or
// Merge. Truncated, oversized, or version-mismatched payloads return an
// error.
func UnmarshalAggregator(data []byte) (*Aggregator, error) {
	return UnmarshalAggregatorInto(data, nil)
}

// UnmarshalAggregatorInto is UnmarshalAggregator decoding into scratch's
// storage when scratch was built for the payload's method list and host
// count, so a consumer draining a stream of same-shape snapshots (a
// fleet coordinator) allocates no aggregator per payload. The returned
// aggregator is scratch when it was used and a fresh one otherwise (nil
// or differently shaped scratch); either way it carries the payload's
// state and nothing else: scratch is Reset, and its workload and
// resilience sections detached, before the first field is decoded, so
// neither its previous contents nor a previous decode that failed
// half-way can leak into this one. After an error scratch holds a
// partial decode, which the next decode into it clears the same way.
func UnmarshalAggregatorInto(data []byte, scratch *Aggregator) (*Aggregator, error) {
	r := &binReader{buf: data}
	version := r.u8()
	if r.err == nil && version != SnapshotCodecVersion {
		return nil, fmt.Errorf("analysis: unsupported aggregator snapshot version %d (want %d)",
			version, SnapshotCodecVersion)
	}
	sections := r.u8()
	if r.err == nil && sections&^aggSectionsKnown != 0 {
		return nil, fmt.Errorf("analysis: aggregator snapshot has unknown section flags %#x", sections&^aggSectionsKnown)
	}
	nm := int(r.u32())
	nHosts := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nm < 1 || nm > 1<<10 || nHosts < 2 || nHosts > 1<<16 {
		return nil, fmt.Errorf("analysis: implausible aggregator snapshot header: %d methods, %d hosts", nm, nHosts)
	}
	methods := make([]string, nm)
	for i := range methods {
		methods[i] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}
	// The per-path section alone needs 13 8-byte fields per (method,
	// path); refuse a header that claims more than the payload holds
	// before NewAggregator allocates its methods × hosts² slot index
	// (4 bytes per claimed path) and the decode loop walks it.
	if need := int64(nm) * int64(nHosts) * int64(nHosts) * 104; need > int64(r.remaining()) {
		return nil, fmt.Errorf("analysis: aggregator snapshot claims %d methods × %d hosts (%d bytes of path stats) with %d bytes left",
			nm, nHosts, need, r.remaining())
	}
	var a *Aggregator
	var wl *WorkloadStats
	var res *ResilienceStats
	if scratch != nil && scratch.nHosts == nHosts && slices.Equal(scratch.methods, methods) {
		a = scratch
		a.Reset()
		// Reset zeroed the workload and resilience sections in place;
		// detach them and reattach each only if this payload carries it,
		// so a probe-only cell decodes to an aggregator with no such
		// section — what a fresh decode builds — rather than an empty one
		// that every later Merge would propagate.
		wl, res = a.wl, a.res
		a.wl, a.res = nil, nil
	} else {
		a = NewAggregator(methods, nHosts)
	}
	for m := 0; m < nm; m++ {
		for pi := 0; pi < a.nPaths; pi++ {
			// The payload is dense; only observed paths get a record
			// (and their place in the touched list, which ascending pi
			// leaves sorted). An unobserved path's fields are all zero.
			probes := r.i64()
			if probes <= 0 {
				r.take(12 * 8)
				continue
			}
			ps := a.rec(a.addSlot(m, pi))
			ps.probes = probes
			ps.firstSent = r.i64()
			ps.firstLost = r.i64()
			ps.secondSent = r.i64()
			ps.secondLost = r.i64()
			ps.bothLost = r.i64()
			ps.effLost = r.i64()
			ps.latSumNS = r.f64()
			ps.latN = r.i64()
			ps.lat1SumNS = r.f64()
			ps.lat1N = r.i64()
			ps.lat2SumNS = r.f64()
			ps.lat2N = r.i64()
		}
		a.touchedSorted[m] = true
	}
	// Pooled window samples are sorted (value, count) runs, the CDF's
	// in-memory form: O(distinct rates), not O(path-hours).
	for m := 0; m < nm; m++ {
		if err := readCDFRuns(r, a.win20Rates[m]); err != nil {
			return nil, err
		}
	}
	if nt := int(r.u32()); r.err == nil && nt != len(Table6Thresholds) {
		return nil, fmt.Errorf("analysis: aggregator snapshot has %d Table 6 thresholds, want %d",
			nt, len(Table6Thresholds))
	}
	for m := 0; m < nm; m++ {
		for i := range a.hourCounts[m] {
			a.hourCounts[m][i] = r.i64()
		}
		a.hourPeriods[m] = r.i64()
	}
	a.hourMaxRate = r.f64()
	for m := 0; m < nm; m++ {
		for h := 0; h < 24; h++ {
			a.hodSent[m][h] = r.i64()
		}
		for h := 0; h < 24; h++ {
			a.hodLost[m][h] = r.i64()
		}
	}
	if sections&aggSectionWorkload != 0 {
		if a.wl = wl; wl == nil {
			wl = a.ensureWorkload()
		}
		wl.DataShards = int(r.u32())
		wl.ParityShards = int(r.u32())
		wl.Paths = int(r.u32())
		for i := range wl.variants {
			v := &wl.variants[i]
			v.FramesSent = r.i64()
			v.FramesDelivered = r.i64()
			v.ShardsSent = r.i64()
			v.ShardsDelivered = r.i64()
			v.ReconstructFailures = r.i64()
			v.latSumNS = r.f64()
			v.latN = r.i64()
			if err := readCDFRuns(r, &v.latCDF); err != nil {
				return nil, err
			}
			if err := readCDFRuns(r, &v.lossCDF); err != nil {
				return nil, err
			}
		}
	}
	if sections&aggSectionResilience != 0 {
		if a.res = res; res == nil {
			res = a.ensureResilience()
		}
		res.UnderlayOutages = r.i64()
		for i := range res.variants {
			v := &res.variants[i]
			v.ProbesSent = r.i64()
			v.ProbesDelivered = r.i64()
			v.Masked = r.i64()
			v.ttrSumNS = r.f64()
			v.ttrN = r.i64()
			if err := readCDFRuns(r, &v.ttrCDF); err != nil {
				return nil, err
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("analysis: %d trailing bytes after aggregator snapshot", r.remaining())
	}
	return a, nil
}
