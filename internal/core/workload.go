package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/fec"
	"repro/internal/netsim"
	"repro/internal/route"
)

// The workload layer wires the paper's §5 question — best-path routing
// versus multi-path with redundancy — into campaigns as application
// traffic. Each configured stream emits a periodic frame between a fixed
// host pair, and every frame is measured under BOTH delivery schemes
// against the same substrate state:
//
//   - multi-path + FEC: the frame's k data shards plus m parity shards
//     (a fec.Code group) are striped round-robin across the Paths best
//     link-disjoint overlay paths (route.Selector.KBestDisjointAppend: the
//     direct path plus distinct single-intermediate paths). The frame is
//     delivered when any k shards arrive — the Reed–Solomon property —
//     and its latency is the arrival of the k-th shard, the moment the
//     receiver can reconstruct.
//   - best-path: the same k data shards, no parity, all on the current
//     lowest-loss path (the head of the same KBestDisjointAppend query, so
//     both schemes see identical routing state). Delivery needs all k
//     shards; latency is the last arrival.
//
// Parity shards trail the data shards on a short fec.DataFirst schedule
// (data at once "to avoid adding latency in the no-loss case", §5.2);
// the spread stays at the tens-of-milliseconds scale of the paper's dd
// probes because path diversity, not temporal spreading, is what the
// multi-path scheme buys escape from loss bursts with — §5.2's
// half-second spreading is what a *single-path* FEC sender would need.
//
// Shard transport reuses the ordinary netsim transit path (every shard
// is one Send), so workload packets see the same congestion processes
// as probes. The GF(256) encode/decode itself is not in the hot path —
// delivery depends only on which shards arrive, which is exactly the
// erasure-channel property TestWorkloadFECDelivery pins against real
// fec.Code Encode/Reconstruct calls.
//
// Disabled workloads (Streams == 0) leave campaigns bit-identical to
// pre-workload builds: no events, no RNG draws, no packet keys.

// WorkloadConfig parameterizes the application-traffic layer. The zero
// value disables it; start from DefaultWorkloadConfig to enable.
type WorkloadConfig struct {
	// Streams is the number of concurrent application streams, each
	// between a seed-drawn host pair. 0 disables the workload layer.
	Streams int
	// FrameInterval is the period between one stream's frames (an
	// interactive sender's packetization clock).
	FrameInterval time.Duration
	// DataShards (k) and ParityShards (m) define the fec.Code group:
	// n = k+m shards per frame, any k reconstruct.
	DataShards   int
	ParityShards int
	// Paths is the number of link-disjoint overlay paths to stripe
	// across, clamped to the n-1 available (direct + distinct vias).
	Paths int
}

// DefaultWorkloadConfig returns the enabled baseline: four interactive
// streams framing every second, a k=4/m=1 code (the §5.2 example's
// one-parity-per-group shape), striped over two disjoint paths.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Streams:       4,
		FrameInterval: time.Second,
		DataShards:    4,
		ParityShards:  1,
		Paths:         2,
	}
}

// Enabled reports whether the workload layer runs at all.
func (w WorkloadConfig) Enabled() bool { return w.Streams > 0 }

// Validate checks an enabled workload configuration; the disabled zero
// value is always valid.
func (w WorkloadConfig) Validate() error { return w.validate() }

func (w WorkloadConfig) validate() error {
	if !w.Enabled() {
		return nil
	}
	if w.Streams < 0 || w.Streams > 1<<16 {
		return fmt.Errorf("core: workload Streams = %d, want 0..%d", w.Streams, 1<<16)
	}
	if w.FrameInterval <= 0 {
		return fmt.Errorf("core: workload FrameInterval = %v, want > 0", w.FrameInterval)
	}
	if w.DataShards < 1 || w.ParityShards < 0 || w.DataShards+w.ParityShards > 256 {
		return fmt.Errorf("core: workload FEC group (k=%d, m=%d) invalid (need k >= 1, m >= 0, k+m <= 256)",
			w.DataShards, w.ParityShards)
	}
	if w.Paths < 1 || w.Paths > 16 {
		return fmt.Errorf("core: workload Paths = %d, want 1..16", w.Paths)
	}
	return nil
}

// enableWorkloadDefaults turns the workload layer on with the default
// shape if the config has it disabled — the shared base for the three
// workload axes, so any single non-zero axis value yields a complete,
// runnable traffic configuration.
func enableWorkloadDefaults(cfg *Config) {
	if !cfg.Workload.Enabled() {
		cfg.Workload = DefaultWorkloadConfig()
	}
}

// --- workload axes ---

// redundancyDef sweeps the FEC redundancy rate m/k in [0, 8]: each
// positive value enables the workload (DefaultWorkloadConfig when not
// already enabled) and sets ParityShards to round(rate·DataShards), at
// least 1. The zero value is the unlabeled default and leaves the
// config untouched; cells with a positive rate are labeled
// "-red<rate>".
var redundancyDef = typedDef(AxisDef{
	Name:    "redundancy",
	Usage:   "comma-separated FEC redundancy rates m/k (0 = workload off/default)",
	Default: "0",
	Label:   prefixLabel("-red", "0"),
}, func(s string) (float64, error) {
	v, err := parseFinite(s)
	if err == nil && (v < 0 || v > 8) {
		err = fmt.Errorf("redundancy rate %g out of [0, 8]", v)
	}
	return v, err
}, formatFloat, func(v float64, cfg *Config) {
	if v > 0 {
		enableWorkloadDefaults(cfg)
		cfg.Workload.ParityShards = max(1, int(math.Round(v*float64(cfg.Workload.DataShards))))
	}
})

// RedundancyAxis sweeps the redundancy axis over typed rates. Invalid
// values surface when the axis is used (NewSweep), not at construction.
func RedundancyAxis(values ...float64) Axis { return typedAxis(&redundancyDef, values) }

// pathsDef sweeps the number of link-disjoint paths, in [0, 16], frames
// are striped across. Positive values enable the workload and set
// Paths, labeling cells "-k<paths>"; 0 is the unlabeled default.
var pathsDef = typedDef(AxisDef{
	Name:    "paths",
	Usage:   "comma-separated disjoint-path counts for workload striping (0 = workload off/default)",
	Default: "0",
	Label:   prefixLabel("-k", "0"),
}, intIn("path count", 16), strconv.Itoa, func(v int, cfg *Config) {
	if v > 0 {
		enableWorkloadDefaults(cfg)
		cfg.Workload.Paths = v
	}
})

// streamsDef sweeps the stream mix (how many concurrent application
// streams, in [0, 65536], load the mesh). Positive values enable the
// workload and set Streams, labeling cells "-st<count>"; 0 is the
// unlabeled default.
var streamsDef = typedDef(AxisDef{
	Name:    "streams",
	Usage:   "comma-separated workload stream counts (0 = workload off/default)",
	Default: "0",
	Label:   prefixLabel("-st", "0"),
}, intIn("stream count", 1<<16), strconv.Itoa, func(v int, cfg *Config) {
	if v > 0 {
		enableWorkloadDefaults(cfg)
		cfg.Workload.Streams = v
	}
})

// intIn returns a parser for an integer in [0, hi].
func intIn(what string, hi int) func(string) (int, error) {
	return func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err == nil && (v < 0 || v > hi) {
			err = fmt.Errorf("%s %d out of [0, %d]", what, v, hi)
		}
		return v, err
	}
}

// --- campaign traffic driver ---

// wlParitySpread is the fec.DataFirst span parity shards trail the data
// by. Tens of milliseconds — the same deliberate skew scale as the dd
// probe methods, within netsim's send-ordering tolerance — because the
// multi-path scheme relies on path diversity rather than §5.2's
// half-second single-path temporal spreading.
const wlParitySpread = 20 * time.Millisecond

// wlStream is one application stream's fixed endpoints and per-variant
// frame tallies (the per-stream loss distribution is fed to the
// aggregator at campaign end).
type wlStream struct {
	src, dst            int32
	sentMP, deliveredMP int64
	sentBP, deliveredBP int64
}

// workloadState is the campaign's workload slab: stream table, shard
// schedule, and per-frame scratch. It lives on the
// campaign struct and is re-seeded in place each cell, preserving the
// arena's zero-steady-state-allocation guarantee.
type workloadState struct {
	streams []wlStream
	// offsets[i] is shard i's send offset within a frame (a converted
	// fec.DataFirst schedule) for the (offK, offM) group; rebuilt only
	// when the group changes (k >= 1, so the zero value never matches).
	offsets    []netsim.Time
	offK, offM int
	// paths/lats are per-frame scratch: the disjoint-path query buffer
	// and the delivered-shard arrival times.
	paths []route.Choice
	lats  []netsim.Time

	k, n     int // data shards, total shards
	kPaths   int // effective path count (clamped to hosts-1)
	interval netsim.Time
}

// seedWorkload initializes the workload slab for the cell and schedules
// every stream's first frame. Called at the end of campaign seeding, so
// its RNG draws and event sequence numbers land strictly after all
// probe/measure seeding — existing campaigns keep their exact draw
// order, and disabled workloads change nothing at all.
func (c *campaign) seedWorkload() {
	w := &c.cfg.Workload
	st := &c.wl
	n := c.tb.N()

	st.k = w.DataShards
	st.n = w.DataShards + w.ParityShards
	st.kPaths = w.Paths
	if max := n - 1; st.kPaths > max {
		st.kPaths = max
	}
	st.interval = netsim.FromDuration(w.FrameInterval)

	if st.offK != w.DataShards || st.offM != w.ParityShards {
		sched, err := fec.DataFirst(w.DataShards, w.ParityShards, wlParitySpread)
		if err != nil {
			// validate() bounds (k, m) before any campaign runs.
			panic(fmt.Sprintf("core: workload shard schedule: %v", err))
		}
		st.offK, st.offM = w.DataShards, w.ParityShards
		if cap(st.offsets) < st.n {
			st.offsets = make([]netsim.Time, st.n)
		} else {
			st.offsets = st.offsets[:st.n]
		}
		for i, off := range sched.Offsets {
			st.offsets[i] = netsim.FromDuration(off)
		}
	}

	if cap(st.streams) < w.Streams {
		st.streams = make([]wlStream, w.Streams)
	} else {
		st.streams = st.streams[:w.Streams]
	}
	for i := range st.streams {
		s := c.rng.Intn(n)
		d := c.rng.Intn(n - 1)
		if d >= s {
			d++
		}
		st.streams[i] = wlStream{src: int32(s), dst: int32(d)}
		phase := netsim.Time(c.rng.Float64() * float64(st.interval))
		c.queue.push(event{t: phase, kind: evWorkloadFrame, a: int32(i)})
	}

	if cap(st.paths) < st.kPaths {
		st.paths = make([]route.Choice, 0, st.kPaths)
	}
	if cap(st.lats) < st.n {
		st.lats = make([]netsim.Time, 0, st.n)
	}
	c.agg.SetWorkloadMeta(st.k, st.n-st.k, st.kPaths)
}

// wlRoute maps a disjoint-path choice to a concrete netsim route.
func wlRoute(p route.Choice, src, dst int) netsim.Route {
	if p.IsDirect() {
		return netsim.Direct(src, dst)
	}
	return netsim.Indirect(src, dst, p.Via)
}

// workloadFrame runs one frame of stream si at time t under both
// delivery schemes. Both variants query the selector once, so they
// compare routing strategies, not information asymmetry.
func (c *campaign) workloadFrame(t netsim.Time, si int) {
	st := &c.wl
	s := &st.streams[si]
	src, dst := int(s.src), int(s.dst)

	st.paths = c.sel.KBestDisjointAppend(st.paths[:0], src, dst, st.kPaths)
	np := len(st.paths)

	// Multi-path + FEC: n shards round-robin across the disjoint paths;
	// delivered when any k arrive, decodable at the k-th arrival.
	lats := st.lats[:0]
	for i := 0; i < st.n; i++ {
		off := st.offsets[i]
		o := c.nw.Send(t+off, wlRoute(st.paths[i%np], src, dst))
		if o.Delivered {
			lats = append(lats, off+o.Latency)
		}
	}
	st.lats = lats
	delivered := len(lats) >= st.k
	var mpLat time.Duration
	if delivered {
		// Insertion sort: n is tiny (k+m shards), and the slice is
		// scratch — the k-th smallest arrival is when reconstruction
		// becomes possible.
		for i := 1; i < len(lats); i++ {
			for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
				lats[j], lats[j-1] = lats[j-1], lats[j]
			}
		}
		mpLat = lats[st.k-1].Duration()
	}
	s.sentMP++
	if delivered {
		s.deliveredMP++
	}
	c.agg.WorkloadFrame(analysis.WorkloadMultiPath, delivered, st.n, len(lats), mpLat)

	// Best-path baseline: the same k data shards, no parity, all on the
	// lowest-loss path (the head of the same query); delivery needs
	// every shard, completing at the last arrival.
	best := wlRoute(st.paths[0], src, dst)
	all := true
	got := 0
	var worst netsim.Time
	for i := 0; i < st.k; i++ {
		o := c.nw.Send(t, best)
		if !o.Delivered {
			all = false
			continue
		}
		got++
		if o.Latency > worst {
			worst = o.Latency
		}
	}
	var bpLat time.Duration
	if all {
		bpLat = worst.Duration()
	}
	s.sentBP++
	if all {
		s.deliveredBP++
	}
	c.agg.WorkloadFrame(analysis.WorkloadBestPath, all, st.k, got, bpLat)
}

// finishWorkload feeds each stream's frame-loss percentage into the
// aggregator's per-stream loss distributions. Called once after the
// event loop drains; a no-op when the workload is disabled.
func (c *campaign) finishWorkload() {
	if !c.cfg.Workload.Enabled() {
		return
	}
	for i := range c.wl.streams {
		s := &c.wl.streams[i]
		if s.sentMP > 0 {
			c.agg.WorkloadStreamLoss(analysis.WorkloadMultiPath,
				100*float64(s.sentMP-s.deliveredMP)/float64(s.sentMP))
		}
		if s.sentBP > 0 {
			c.agg.WorkloadStreamLoss(analysis.WorkloadBestPath,
				100*float64(s.sentBP-s.deliveredBP)/float64(s.sentBP))
		}
	}
}
