// Package route implements the routing policy layer of the simulation
// campaigns: the per-packet routing tactics and probe methods of the
// paper (Table 4), link-quality estimators (average loss over the last
// 100 probes, smoothed latency), and the RON-style one-intermediate path
// selector (§3.1).
package route

import (
	"fmt"
	"time"
)

// Tactic is a per-packet routing tactic (Table 4 of the paper). Its
// values are the tactic byte of a §4.1 trace record.
type Tactic uint8

// Tactics.
const (
	// Direct uses the native Internet path.
	Direct Tactic = iota
	// Rand relays through a uniformly random intermediate node.
	Rand
	// Lat follows the probe-selected latency-optimized path, avoiding
	// completely failed links.
	Lat
	// Loss follows the probe-selected loss-optimized path.
	Loss
	numTactics
)

// String returns the paper's name for the tactic.
func (t Tactic) String() string {
	switch t {
	case Direct:
		return "direct"
	case Rand:
		return "rand"
	case Lat:
		return "lat"
	case Loss:
		return "loss"
	default:
		return fmt.Sprintf("tactic(%d)", uint8(t))
	}
}

// Valid reports whether t is one of Table 4's four tactics.
func (t Tactic) Valid() bool { return t < numTactics }

// Method is a probe/transmission method: one or two packets, each with a
// tactic, optionally separated by a send gap. The paper's methods range
// from plain "direct" to 2-redundant combinations like "direct rand" and
// same-path pairs with 10/20 ms spacing.
type Method struct {
	// Name is the paper's label, e.g. "direct rand" or "dd 10 ms".
	Name string
	// Tactics holds one entry per packet copy (length 1 or 2).
	Tactics []Tactic
	// Gap is the deliberate delay between the two copies. The paper
	// uses 0 (back-to-back), 10 ms, and 20 ms.
	Gap time.Duration
}

// Copies returns the number of packets this method transmits.
func (m Method) Copies() int { return len(m.Tactics) }

// String returns the method name.
func (m Method) String() string { return m.Name }

// Validate checks structural sanity.
func (m Method) Validate() error {
	if n := len(m.Tactics); n < 1 || n > 2 {
		return fmt.Errorf("route: method %q has %d copies, want 1 or 2", m.Name, n)
	}
	for _, t := range m.Tactics {
		if !t.Valid() {
			return fmt.Errorf("route: method %q has invalid tactic %d", m.Name, t)
		}
	}
	if m.Gap < 0 {
		return fmt.Errorf("route: method %q has negative gap", m.Name)
	}
	if m.Gap > 0 && len(m.Tactics) != 2 {
		return fmt.Errorf("route: method %q has a gap but one copy", m.Name)
	}
	return nil
}

// The canonical methods of the paper.
var (
	// MethodDirect is a single packet on the direct Internet path.
	MethodDirect = Method{Name: "direct", Tactics: []Tactic{Direct}}
	// MethodRand is a single packet via a random intermediate.
	MethodRand = Method{Name: "rand", Tactics: []Tactic{Rand}}
	// MethodLat is a single packet on the latency-optimized path.
	MethodLat = Method{Name: "lat", Tactics: []Tactic{Lat}}
	// MethodLoss is a single packet on the loss-optimized path.
	MethodLoss = Method{Name: "loss", Tactics: []Tactic{Loss}}
	// MethodDirectRand is 2-redundant mesh routing: one copy direct,
	// one via a random intermediate, back-to-back (§3.2).
	MethodDirectRand = Method{Name: "direct rand", Tactics: []Tactic{Direct, Rand}}
	// MethodLatLoss is probe-based 2-redundant routing: first copy on
	// the latency-optimized path (Table 5 infers "lat" from it), second
	// on the loss-optimized path.
	MethodLatLoss = Method{Name: "lat loss", Tactics: []Tactic{Lat, Loss}}
	// MethodDirectDirect is two back-to-back copies on the direct path.
	MethodDirectDirect = Method{Name: "direct direct", Tactics: []Tactic{Direct, Direct}}
	// MethodDD10 spaces the two direct copies by 10 ms.
	MethodDD10 = Method{Name: "dd 10 ms", Tactics: []Tactic{Direct, Direct}, Gap: 10 * time.Millisecond}
	// MethodDD20 spaces the two direct copies by 20 ms.
	MethodDD20 = Method{Name: "dd 20 ms", Tactics: []Tactic{Direct, Direct}, Gap: 20 * time.Millisecond}
	// MethodRandRand sends both copies via independently chosen random
	// intermediates (RONwide, Table 7).
	MethodRandRand = Method{Name: "rand rand", Tactics: []Tactic{Rand, Rand}}
	// MethodDirectLat pairs the direct path with the latency-optimized
	// path (Table 7: best latency of any method).
	MethodDirectLat = Method{Name: "direct lat", Tactics: []Tactic{Direct, Lat}}
	// MethodDirectLoss pairs the direct path with the loss-optimized path.
	MethodDirectLoss = Method{Name: "direct loss", Tactics: []Tactic{Direct, Loss}}
	// MethodRandLat pairs a random intermediate with the latency path.
	MethodRandLat = Method{Name: "rand lat", Tactics: []Tactic{Rand, Lat}}
	// MethodRandLoss pairs a random intermediate with the loss path.
	MethodRandLoss = Method{Name: "rand loss", Tactics: []Tactic{Rand, Loss}}
)

// RON2003Methods returns the probe sets of the RON2003 dataset: six sets
// covering eight reported rows (direct and lat are inferred from the
// first packets of "direct rand" and "lat loss", but the harness also
// reports them directly).
func RON2003Methods() []Method {
	return []Method{
		MethodLoss,
		MethodDirectRand,
		MethodLatLoss,
		MethodDirectDirect,
		MethodDD10,
		MethodDD20,
	}
}

// RONwideMethods returns the eleven-method probe set of the RONwide 2002
// dataset plus the plain direct probe (Table 7 reports twelve rows).
func RONwideMethods() []Method {
	return []Method{
		MethodDirect,
		MethodRand,
		MethodLat,
		MethodLoss,
		MethodDirectDirect,
		MethodRandRand,
		MethodDirectRand,
		MethodDirectLat,
		MethodDirectLoss,
		MethodRandLat,
		MethodRandLoss,
		MethodLatLoss,
	}
}

// RONnarrowMethods returns the three most promising methods measured at
// high frequency in the RONnarrow dataset.
func RONnarrowMethods() []Method {
	return []Method{MethodLoss, MethodDirectRand, MethodLatLoss}
}
