// Package resultstore is the columnar sweep result sink: an append-only
// segment file with one row per completed cell or merged group,
// carrying the cell's dataset, full axis-coordinate map, replica index,
// and a flat metric vector extracted from the analysis aggregator. The
// sweep engine, the experiment builder, and the fleet coordinator all
// append to it as cells finish, and cmd/ronreport queries it — axis
// predicates, group-by, quantiles, and canned re-renders of every paper
// table — without touching a single snapshot.
//
// Segment format (all integers little-endian, like CellSnapshot):
//
//	magic "RONSTOR1"
//	block*: [kind u8][payloadLen u32][payload][crc32 u32 IEEE over kind+len+payload]
//
// Block kind 1 is a column dictionary: a uvarint count followed by that
// many length-prefixed column names; IDs are assigned in file order, so
// readers rebuild the dictionary by accumulation. A name appears in one
// block once, and in no later block.
// Block kind 2 is one row (see appendRow for the field layout); metric
// columns reference dictionary IDs, so the per-row cost of a metric is
// a uvarint plus eight bytes regardless of column-name length.
//
// Each Append is a single write(2) of fully CRC-framed bytes, so a
// crash can only produce a torn tail; Open and ReadSegment stream the
// file through one blockScanner and truncate/ignore everything from the
// first bad frame, making the store crash-tolerant the same way the
// coordinator's snapshot directory is. Appends are never deduplicated (a
// coordinator restart legitimately re-appends recovered cells); readers
// dedupe by row identity, first occurrence wins.
package resultstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Metric values and Days travel as raw IEEE-754 bits, so every float
// round-trips exactly and integer counters stored as floats stay exact
// up to 2⁵³.
func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// SegmentFileName is the store's file name inside a sweep output
// directory, next to cells/ and merged/.
const SegmentFileName = "results.seg"

// SegmentPath returns the segment path for a sweep output directory.
func SegmentPath(outDir string) string { return filepath.Join(outDir, SegmentFileName) }

const (
	storeMagic = "RONSTOR1"

	blockColumns = 1
	blockRow     = 2

	rowKindCell  = 1
	rowKindGroup = 2
)

// Row kinds as query-facing strings.
const (
	KindCell  = "cell"
	KindGroup = "group"
)

// AxisKV is one axis coordinate, e.g. {"scenario", "outage"}.
type AxisKV struct {
	Key   string
	Value string
}

// Metric is one named scalar of a row's flat metric vector.
type Metric struct {
	Col string
	Val float64
}

// Row is one stored result: a completed cell (Kind == KindCell, one
// replica campaign) or a merged group (Kind == KindGroup, all replicas
// of one grid point folded together).
//
// A row's metric vector has two forms. The write form is Metrics, what
// producers build (core.CellStoreRow, Tables.Flatten). The read form is
// what ReadSegment returns: Metrics is nil, the column names are a
// slice shared by every row of the segment with the same column
// sequence, and the values are a pointer-free []float64 of the row's
// own. NumMetrics and MetricAt read whichever form the row holds, and
// they are the only code that knows both: Append, MetricValue,
// MetricValues and RowTables read through them, so a hand-built row and
// a decoded one read the same.
type Row struct {
	Kind    string
	Name    string // cell name ("...-r00") or group name
	Group   string // owning group name; equals Name for group rows
	Dataset string // lower-cased dataset, as used in output paths

	Replica  int32 // replica ordinal for cells; -1 for group rows
	Replicas int32 // campaigns folded into the row (1 for cells)
	Hosts    int32 // testbed size

	Seed uint64  // cell seed; 0 for group rows
	Days float64 // per-replica campaign length in virtual days

	RONProbes     int64
	MeasureProbes int64
	RouteChanges  int64

	// Snapshot is the out-dir-relative CellSnapshot path backing the
	// row ("" for group rows) — the drill-down hook for CDF-level
	// questions the flat metrics can't answer.
	Snapshot string

	Axes []AxisKV // sorted by key
	// Metrics is the write form of the metric vector, which names each
	// column once. Append writes what it is given; ReadSegment keeps the
	// first of a column a stored row repeats, the same first-wins rule
	// Unique applies to whole rows, and returns it in the read form.
	Metrics []Metric

	// The read form: cols[i] names vals[i]. cols is shared, never
	// written through; vals is cut to cap == len.
	cols []string
	vals []float64
}

// NumMetrics returns how many metric columns the row carries.
func (r *Row) NumMetrics() int {
	if r.Metrics != nil {
		return len(r.Metrics)
	}
	return len(r.vals)
}

// MetricAt returns the row's i-th metric column and its value,
// 0 <= i < NumMetrics().
func (r *Row) MetricAt(i int) (col string, val float64) {
	if r.Metrics != nil {
		return r.Metrics[i].Col, r.Metrics[i].Val
	}
	return r.cols[i], r.vals[i]
}

// Store is the append side: an open segment file plus the running
// column dictionary. Safe for concurrent Append.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	buf  []byte
	dict dictionary
	// layout is the previous row's column sequence with its dictionary
	// IDs. Nearly every row of a sweep repeats it, so Append consults
	// dict only when a row's sequence differs.
	layout []layoutCol
	rows   int64
	path   string
}

type layoutCol struct {
	name string
	id   uint64
}

// Open opens (creating if needed) the segment at path and positions for
// appending. A torn tail from a crashed writer — anything from a
// half-written magic to a half-written block — is truncated away;
// everything CRC-valid before it is preserved, and the column
// dictionary and row count are rebuilt from the surviving blocks.
func Open(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, path: path}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the segment, rebuilds the dictionary and row count from
// the valid prefix, truncates any torn tail, and seeks to the end.
func (s *Store) recover() error {
	sc, err := newBlockScanner(s.f, s.path)
	if err != nil {
		return err
	}
	for sc.next() {
		if sc.kind == blockRow {
			s.rows++
			continue
		}
		if !s.dict.decode(sc.payload) {
			break
		}
	}
	if sc.err != nil {
		return sc.err
	}
	if sc.valid == 0 {
		// Empty or torn-magic file: start fresh.
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.f.WriteAt([]byte(storeMagic), 0); err != nil {
			return err
		}
		sc.valid = int64(len(storeMagic))
	} else if sc.valid < sc.size {
		if err := s.f.Truncate(sc.valid); err != nil {
			return err
		}
	}
	_, err = s.f.Seek(sc.valid, io.SeekStart)
	return err
}

// blockScanner streams a segment's blocks in file order, verifying each
// frame's CRC. It is the one reader of the framing: Open counts rows and
// rebuilds the dictionary through it, ReadSegment decodes through it.
//
//	for sc.next() { use sc.kind, sc.payload; break to refuse the block }
//
// valid trails the loop: it is the offset just past the last block the
// caller finished with, so breaking out on an undecodable payload leaves
// that block on the torn side of the boundary.
type blockScanner struct {
	br    *bufio.Reader
	size  int64 // file size when the scan began
	valid int64 // 0 when the file is shorter than the magic
	end   int64 // offset just past the current block

	kind    byte
	payload []byte // the current block's; overwritten by the next call
	peeked  int    // bytes of br's buffer the current block still occupies
	big     []byte // backing for a block larger than br's buffer
	err     error  // a read failure, as opposed to a torn tail
}

// scanBufSize is the scanner's read size. Blocks are a few kB; one
// larger than this is read into its own buffer.
const scanBufSize = 256 << 10

// newBlockScanner positions a scanner after the magic of the segment
// open at f's start. A file too short to hold the magic scans as empty
// with valid 0; any other magic is an error.
func newBlockScanner(f *os.File, path string) (*blockScanner, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sc := &blockScanner{size: info.Size()}
	if sc.size < int64(len(storeMagic)) {
		return sc, nil
	}
	sc.br = bufio.NewReaderSize(f, int(min(sc.size, scanBufSize)))
	magic, err := sc.br.Peek(len(storeMagic))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %s: %w", path, err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("resultstore: %s: not a result store segment", path)
	}
	sc.br.Discard(len(storeMagic))
	sc.end = int64(len(storeMagic))
	return sc, nil
}

// next accepts the current block and reads the following one. It
// returns false at the end of the file and at the first short, corrupt
// or unknown-kind frame — the torn-tail boundary.
func (sc *blockScanner) next() bool {
	if sc.br == nil {
		return false
	}
	sc.br.Discard(sc.peeked) // cannot fail: these bytes are buffered
	sc.peeked = 0
	sc.valid = sc.end
	rest := sc.size - sc.valid
	if rest < 5+4 {
		return false
	}
	head, err := sc.br.Peek(5)
	if err != nil {
		return sc.stop(err)
	}
	kind := head[0]
	frame := 5 + int64(binary.LittleEndian.Uint32(head[1:])) + 4
	// The length is checked against what the file still holds before
	// anything is sized by it.
	if kind != blockColumns && kind != blockRow || frame > rest {
		return false
	}
	var block []byte
	if frame <= int64(sc.br.Size()) {
		block, err = sc.br.Peek(int(frame))
		sc.peeked = len(block)
	} else {
		if int64(cap(sc.big)) < frame {
			sc.big = make([]byte, frame)
		}
		block = sc.big[:frame]
		_, err = io.ReadFull(sc.br, block)
	}
	if err != nil {
		return sc.stop(err)
	}
	body := block[:frame-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(block[frame-4:]) {
		return false
	}
	sc.kind, sc.payload, sc.end = kind, body[5:], sc.valid+frame
	return true
}

// stop ends the scan on a read error. Running out of bytes early means
// the file shrank under the scan, which is one more torn tail.
func (sc *blockScanner) stop(err error) bool {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		sc.err = err
	}
	return false
}

// Append writes one row as a single framed write. New metric columns
// are registered in a dictionary block emitted immediately before the
// row, inside the same write. Steady state — the row's columns in the
// previous row's order, buffer warm — allocates nothing and looks
// nothing up.
func (s *Store) Append(r *Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]

	if !s.layoutMatches(r) {
		s.resolveLayout(r)
	}
	start := s.beginBlock(blockRow)
	s.appendRow(r)
	s.endBlock(start)

	if _, err := s.f.Write(s.buf); err != nil {
		return fmt.Errorf("resultstore: append %s: %w", s.path, err)
	}
	s.rows++
	return nil
}

func (s *Store) layoutMatches(r *Row) bool {
	if r.NumMetrics() != len(s.layout) {
		return false
	}
	for i := range s.layout {
		if col, _ := r.MetricAt(i); col != s.layout[i].name {
			return false
		}
	}
	return true
}

// resolveLayout makes r's column sequence the cached layout,
// registering never-seen columns and framing them as a dictionary block
// at the head of the pending write.
func (s *Store) resolveLayout(r *Row) {
	s.layout = s.layout[:0]
	var fresh []string // only for never-seen columns; allocs fine
	for i := range r.NumMetrics() {
		col, _ := r.MetricAt(i)
		id, ok := s.dict.ids[col]
		if !ok {
			id = s.dict.add(col)
			fresh = append(fresh, col)
		}
		s.layout = append(s.layout, layoutCol{col, id})
	}
	if len(fresh) == 0 {
		return
	}
	start := s.beginBlock(blockColumns)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(fresh)))
	for _, n := range fresh {
		s.appendString(n)
	}
	s.endBlock(start)
}

// appendRow encodes the row payload; r's columns must be in s.layout's
// order. Field order is the wire contract; rowDecoder.decode mirrors it
// exactly.
func (s *Store) appendRow(r *Row) {
	k := byte(rowKindCell)
	if r.Kind == KindGroup {
		k = rowKindGroup
	}
	s.buf = append(s.buf, k)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, r.Seed)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(r.Replica))
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(r.Replicas))
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(r.Hosts))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, floatBits(r.Days))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(r.RONProbes))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(r.MeasureProbes))
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(r.RouteChanges))
	s.appendString(r.Name)
	s.appendString(r.Group)
	s.appendString(r.Dataset)
	s.appendString(r.Snapshot)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(r.Axes)))
	for i := range r.Axes {
		s.appendString(r.Axes[i].Key)
		s.appendString(r.Axes[i].Value)
	}
	s.buf = binary.AppendUvarint(s.buf, uint64(len(s.layout)))
	for i := range s.layout {
		_, val := r.MetricAt(i)
		s.buf = binary.AppendUvarint(s.buf, s.layout[i].id)
		s.buf = binary.LittleEndian.AppendUint64(s.buf, floatBits(val))
	}
}

func (s *Store) appendString(v string) {
	s.buf = binary.AppendUvarint(s.buf, uint64(len(v)))
	s.buf = append(s.buf, v...)
}

// beginBlock reserves the 5-byte header and returns the payload start;
// endBlock backfills the length and appends the CRC.
func (s *Store) beginBlock(kind byte) int {
	s.buf = append(s.buf, kind, 0, 0, 0, 0)
	return len(s.buf)
}

func (s *Store) endBlock(start int) {
	binary.LittleEndian.PutUint32(s.buf[start-4:start], uint32(len(s.buf)-start))
	crc := crc32.ChecksumIEEE(s.buf[start-5:])
	s.buf = binary.LittleEndian.AppendUint32(s.buf, crc)
}

// Rows returns the number of rows appended plus those recovered at
// Open — the figure the coordinator surfaces in /progress.
func (s *Store) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Close closes the segment file.
func (s *Store) Close() error { return s.f.Close() }

// --- read side ---

// Segment is a fully decoded segment file.
type Segment struct {
	Columns []string
	Rows    []Row
	// TruncatedBytes counts trailing bytes ignored as a torn or corrupt
	// tail (0 for a cleanly written file).
	TruncatedBytes int64
}

// ReadSegment decodes the segment at path. Tail corruption is not an
// error: decoding stops at the first bad frame and reports how many
// bytes were left behind, mirroring the writer's Open-time truncation.
func ReadSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := newBlockScanner(f, path)
	if err != nil {
		return nil, err
	}
	seg := &Segment{}
	var dict dictionary
	dec := rowDecoder{intern: make(map[string]string), layouts: make(map[string][]string)}
	var rowBytes int64 // file bytes the decoded rows' blocks took
	for sc.next() {
		ok := false
		switch sc.kind {
		case blockColumns:
			ok = dict.decode(sc.payload)
		case blockRow:
			n := len(seg.Rows)
			if n == cap(seg.Rows) {
				seg.Rows = growRows(seg.Rows, rowBytes, sc.size-sc.valid)
				dec.reserve(cap(seg.Rows) - n)
			}
			if ok = dec.decode(&seg.Rows[:n+1][n], sc.payload, dict.names); ok {
				seg.Rows = seg.Rows[:n+1]
				rowBytes += sc.end - sc.valid
			}
		}
		if !ok {
			break
		}
	}
	if sc.err != nil {
		return nil, fmt.Errorf("resultstore: %s: %w", path, sc.err)
	}
	seg.Columns = dict.names
	seg.TruncatedBytes = sc.size - sc.valid
	return seg, nil
}

// growRows reallocates a full rows for the rows still to come: the rest
// of the file at the mean block size so far, plus a little. A sweep's
// rows are nearly the same size, so the first guess made from a sample
// of them is usually the last.
func growRows(rows []Row, rowBytes, rest int64) []Row {
	const sample = 16
	more := int64(sample)
	if n := int64(len(rows)); n > 0 {
		est := rest * n / rowBytes
		more = max(est+est/64, n/8, sample)
	}
	grown := make([]Row, len(rows), int64(len(rows))+more)
	copy(grown, rows)
	return grown
}

// Unique returns the rows deduplicated by identity (kind + name), first
// occurrence winning — the read-side answer to re-appended rows from
// coordinator restarts or resumed sweeps.
func (s *Segment) Unique() []*Row {
	type identity struct{ kind, name string }
	seen := make(map[identity]struct{}, len(s.Rows))
	out := make([]*Row, 0, len(s.Rows))
	for i := range s.Rows {
		r := &s.Rows[i]
		id := identity{r.Kind, r.Name}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, r)
	}
	return out
}

// dictionary is a segment's column dictionary: names in ID order, IDs
// assigned in file order, and the reverse index. Open rebuilds the
// writer's and ReadSegment the reader's through decode, so both sides
// assign every column the same ID.
type dictionary struct {
	names []string
	ids   map[string]uint64
}

func (d *dictionary) add(name string) uint64 {
	if d.ids == nil { // decode has grown names to fit its first block
		d.ids = make(map[string]uint64, cap(d.names))
	}
	id := uint64(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// decode adds a dictionary block's names. The writer only ever registers
// a name once, so a block that names a column the dictionary already
// holds, or one twice, is refused whole like any undecodable block: it
// is the torn boundary, and the dictionary is left as it was.
func (d *dictionary) decode(payload []byte) bool {
	n, payload, ok := readUvarint(payload)
	if !ok || n > uint64(len(payload)) { // a name takes at least its length byte
		return false
	}
	start := len(d.names)
	d.names = slices.Grow(d.names, int(n))
	for i := uint64(0); ok && i < n; i++ {
		var name string
		if name, payload, ok = readString(payload); ok {
			if _, dup := d.ids[name]; dup {
				ok = false
			} else {
				d.add(name)
			}
		}
	}
	if ok && len(payload) == 0 {
		return true
	}
	for _, name := range d.names[start:] {
		delete(d.ids, name)
	}
	d.names = d.names[:start]
	return false
}

// rowDecoder decodes row payloads for one ReadSegment. What a sweep's
// rows have in common is held once: value and axis slices are
// exact-size carvings of shared slabs, a column sequence's names slice
// is built once and shared by every row that has it, and strings that
// repeat from row to row (group, dataset, axis keys and values) are
// interned.
type rowDecoder struct {
	vals   slab[float64]
	axes   slab[AxisKV]
	intern map[string]string
	prev   Row // the last row decoded: first guess for every repeated string
	// seen[id] == rows marks column id as already taken by the row being
	// decoded; a repeat is dropped, first occurrence winning.
	seen []int
	rows int
	// carved counts the values carved for the rows so far.
	carved int64
	// seq is the kept column IDs of the row being decoded, prevSeq the
	// last row's that had columns, and prevNames its names slice.
	// layouts holds every sequence's names slice, keyed by its IDs as
	// uvarints (key is the scratch the key is built in).
	seq, prevSeq []uint64
	prevNames    []string
	layouts      map[string][]string
	key          []byte
}

// slab hands out exact-size slices carved from chunks that double up to
// slabMax elements, so a small segment stays small and a large one pays
// one allocation per slabMax elements, not one (or, grown by append,
// several) per row. rowDecoder.reserve sizes the value slab's chunks
// from the file instead.
type slab[T any] struct {
	free  []T
	chunk int
}

const slabMax = 1 << 12

func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.chunk = min(max(2*s.chunk, 64), slabMax)
		if n > s.chunk {
			return make([]T, n)
		}
		s.free = make([]T, s.chunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// reserve sizes the value slab's next chunk for rows more rows at the
// mean count of values so far: the estimate growRows just sized
// Segment.Rows by. A segment's values are then one allocation, made
// before the rows that fill it are decoded. The chunk is bounded by the
// file: every value carved so far took at least nine of the row bytes
// the estimate extrapolates.
func (d *rowDecoder) reserve(rows int) {
	if d.rows == 0 {
		return
	}
	if n := int(int64(rows) * d.carved / int64(d.rows)); n > len(d.vals.free) {
		d.vals.free = make([]float64, n)
	}
}

// Smallest encodings: an axis is two empty strings, a metric a one-byte
// column ID and eight value bytes.
const (
	minAxisBytes   = 2
	minMetricBytes = 9
)

// decode fills r from a row payload. cols is the dictionary so far.
func (d *rowDecoder) decode(r *Row, payload []byte, cols []string) bool {
	if len(payload) < 1+8+4+4+4+8+8+8+8 {
		return false
	}
	switch payload[0] {
	case rowKindCell:
		r.Kind = KindCell
	case rowKindGroup:
		r.Kind = KindGroup
	default:
		return false
	}
	payload = payload[1:]
	r.Seed = binary.LittleEndian.Uint64(payload)
	r.Replica = int32(binary.LittleEndian.Uint32(payload[8:]))
	r.Replicas = int32(binary.LittleEndian.Uint32(payload[12:]))
	r.Hosts = int32(binary.LittleEndian.Uint32(payload[16:]))
	r.Days = floatFromBits(binary.LittleEndian.Uint64(payload[20:]))
	r.RONProbes = int64(binary.LittleEndian.Uint64(payload[28:]))
	r.MeasureProbes = int64(binary.LittleEndian.Uint64(payload[36:]))
	r.RouteChanges = int64(binary.LittleEndian.Uint64(payload[44:]))
	payload = payload[52:]
	var ok bool
	if r.Name, payload, ok = readString(payload); !ok {
		return false
	}
	if r.Group, payload, ok = d.readInterned(payload, d.prev.Group); !ok {
		return false
	}
	if r.Dataset, payload, ok = d.readInterned(payload, d.prev.Dataset); !ok {
		return false
	}
	if r.Snapshot, payload, ok = readString(payload); !ok {
		return false
	}
	// Both counts are held to what the rest of the payload could encode
	// before they size anything: a CRC-valid block may still lie.
	var n uint64
	if n, payload, ok = readUvarint(payload); !ok || n > uint64(len(payload)/minAxisBytes) {
		return false
	}
	if n > 0 {
		r.Axes = d.axes.carve(int(n))
	}
	for i := range r.Axes {
		var guess AxisKV
		if i < len(d.prev.Axes) {
			guess = d.prev.Axes[i]
		}
		kv := &r.Axes[i]
		if kv.Key, payload, ok = d.readInterned(payload, guess.Key); !ok {
			return false
		}
		if kv.Value, payload, ok = d.readInterned(payload, guess.Value); !ok {
			return false
		}
	}
	if n, payload, ok = readUvarint(payload); !ok || n > uint64(len(payload)/minMetricBytes) {
		return false
	}
	d.rows++
	for len(d.seen) < len(cols) {
		d.seen = append(d.seen, 0)
	}
	vals, seq := d.vals.carve(int(n)), slices.Grow(d.seq[:0], int(n))
	d.carved += int64(n)
	for range vals {
		if len(payload) < minMetricBytes {
			return false
		}
		id, w := uint64(payload[0]), 1
		if id >= 0x80 {
			if id, w = binary.Uvarint(payload); w <= 0 {
				return false
			}
		}
		if id >= uint64(len(cols)) || len(payload) < w+8 {
			return false
		}
		if d.seen[id] != d.rows {
			d.seen[id] = d.rows
			vals[len(seq)] = floatFromBits(binary.LittleEndian.Uint64(payload[w:]))
			seq = append(seq, id)
		}
		payload = payload[w+8:]
	}
	d.seq = seq
	if len(payload) != 0 {
		return false
	}
	if kept := len(seq); kept > 0 {
		r.cols, r.vals = d.names(cols), vals[:kept:kept]
	}
	d.prev = *r
	return true
}

// names returns the shared names slice of the column sequence in d.seq:
// the previous row's when the sequence is the same, else the one an
// earlier row with this sequence was given, else a new one made of the
// dictionary's own strings.
func (d *rowDecoder) names(cols []string) []string {
	if slices.Equal(d.seq, d.prevSeq) {
		return d.prevNames
	}
	d.key = d.key[:0]
	for _, id := range d.seq {
		d.key = binary.AppendUvarint(d.key, id)
	}
	names, ok := d.layouts[string(d.key)]
	if !ok {
		names = make([]string, len(d.seq))
		for i, id := range d.seq {
			names[i] = cols[id]
		}
		d.layouts[string(d.key)] = names
	}
	d.seq, d.prevSeq, d.prevNames = d.prevSeq, d.seq, names
	return names
}

// readInterned reads a length-prefixed string that earlier rows have
// probably carried: guess (the previous row's string in the same place)
// is tried first, then the intern table.
func (d *rowDecoder) readInterned(b []byte, guess string) (string, []byte, bool) {
	raw, b, ok := readBytes(b)
	if !ok || string(raw) == guess {
		return guess, b, ok
	}
	s, ok := d.intern[string(raw)]
	if !ok {
		s = string(raw)
		d.intern[s] = s
	}
	return s, b, true
}

func readUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// readBytes reads a length-prefixed byte string.
func readBytes(b []byte) (raw, rest []byte, ok bool) {
	n, b, ok := readUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	return b[:n], b[n:], true
}

func readString(b []byte) (string, []byte, bool) {
	raw, b, ok := readBytes(b)
	return string(raw), b, ok
}
