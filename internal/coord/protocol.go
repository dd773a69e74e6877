package coord

// The coordinator wire protocol. Everything is JSON except a finished
// cell's snapshot, which travels as the raw CellSnapshot container —
// already length-framed, CRC-32-guarded, and byte-identical to what a
// single-process sweep writes to disk, so the coordinator can persist
// the payload verbatim and -merge-only tooling stays compatible.
//
//	GET  /manifest  → SweepManifest JSON: the full grid as pure data;
//	                  workers re-expand it with SweepSpec().
//	POST /lease     ← {"worker": name}
//	                → LeaseResponse, held until a grant or done; a bare
//	                  wait (hold cap, shutdown) means "ask again now".
//	POST /renew     ← {"lease": id}
//	                → RenewResponse, or HTTP 410 when the lease is
//	                  expired or revoked (the cell may re-dispatch).
//	POST /complete?cell=IDX&wall=MS
//	                ← raw snapshot container bytes
//	                → CompleteResponse; duplicate deliveries are
//	                  accepted and flagged, never errors.
//	GET  /progress  → Progress JSON: live per-group completion.

// Wire paths.
const (
	PathManifest = "/manifest"
	PathLease    = "/lease"
	PathRenew    = "/renew"
	PathComplete = "/complete"
	PathProgress = "/progress"
)

// Lease statuses in LeaseResponse.Status.
const (
	StatusGranted = "granted"
	StatusWait    = "wait"
	StatusDone    = "done"
)

// LeaseRequest asks for a cell lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request. With Status == StatusGranted,
// Lease/Cell/Name/Seed identify the work and TTLMillis its heartbeat
// deadline; StatusWait asks the worker to ask again at once (the
// coordinator already held the request as long as it will); with
// StatusDone the sweep is complete and the worker should exit.
type LeaseResponse struct {
	Status string `json:"status"`
	Lease  uint64 `json:"lease,omitempty"`
	// Cell is the cell's expansion index in the manifest-derived grid;
	// Name and Seed let the worker cross-check its own expansion before
	// computing — a registry or version skew fails loudly here instead
	// of producing a mislabeled result.
	Cell      int    `json:"cell,omitempty"`
	Name      string `json:"name,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	TTLMillis int64  `json:"ttlMillis,omitempty"`
}

// RenewRequest heartbeats a lease.
type RenewRequest struct {
	Lease uint64 `json:"lease"`
}

// RenewResponse acknowledges a renewal with the refreshed deadline.
type RenewResponse struct {
	TTLMillis int64 `json:"ttlMillis"`
}

// CompleteResponse acknowledges a snapshot delivery. Duplicate is true
// when another delivery won the cell first (a re-dispatched straggler
// or a retried upload); the payload was validated and discarded.
type CompleteResponse struct {
	Duplicate bool `json:"duplicate"`
}

// Progress is the /progress payload: live sweep-wide and per-group
// completion, the view a fleet operator polls at scale. The lease-
// health counters and per-worker contact ages are what make a stalled
// fleet diagnosable from one poll: expiries climbing with done flat
// means workers are dying mid-cell, a worker whose contact age dwarfs
// the lease TTL is gone, and redispatches say how much work the fleet
// recomputed.
type Progress struct {
	TotalCells    int `json:"totalCells"`
	SelectedCells int `json:"selectedCells"`
	DoneCells     int `json:"doneCells"`
	LeasedCells   int `json:"leasedCells"`
	PendingCells  int `json:"pendingCells"`
	// ReusedCells counts cells satisfied from snapshots on disk: the
	// spec's Resume directory, or what a previous coordinator
	// incarnation persisted to OutDir before it crashed.
	ReusedCells int `json:"reusedCells"`
	// ExpiredLeases counts leases revoked past their deadline;
	// RedispatchedLeases counts grants that handed out a cell some
	// earlier lease had already held.
	ExpiredLeases      int64 `json:"expiredLeases"`
	RedispatchedLeases int64 `json:"redispatchedLeases"`
	// StoredRows counts rows in the columnar result store (cells plus
	// merged groups, including rows recovered from a previous
	// incarnation's segment); 0 when no store is attached.
	StoredRows int64 `json:"storedRows,omitempty"`
	Complete   bool  `json:"complete"`
	// Workers lists every worker that ever contacted the coordinator,
	// sorted by name, with its seconds-since-last-contact.
	Workers []WorkerProgress `json:"workers,omitempty"`
	// Groups lists every grid point in expansion order.
	Groups []GroupProgress `json:"groups"`
}

// WorkerProgress is one worker's liveness view: how long ago it last
// leased, renewed, or delivered anything.
type WorkerProgress struct {
	Name             string  `json:"name"`
	SecondsSinceSeen float64 `json:"secondsSinceSeen"`
}

// GroupProgress is one grid point's completion state.
type GroupProgress struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Done  int    `json:"done"`
	// Merged is true once the group's replicas have been merged (the
	// moment its last cell landed).
	Merged bool `json:"merged"`
}
