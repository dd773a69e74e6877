// Package topo describes the measurement testbed: the hosts of the RON
// testbed as published in Table 1 of the paper (name, location, kind,
// access technology), the 17-host 2002 subset, and a synthetic geographic
// embedding used to derive base path latencies.
//
// The paper's testbed "grew opportunistically ... no effort was made to
// explicitly engineer path redundancy"; correspondingly the topology here
// carries per-host access-link quality classes and the coordinates imply
// a heterogeneous latency matrix (trans-US, trans-Atlantic, trans-Pacific
// paths) rather than a uniform mesh.
package topo

import (
	"fmt"
	"math"
	"time"
)

// Kind categorizes a testbed host in the spirit of Table 2.
type Kind uint8

// Host kinds.
const (
	// KindUniversity is a U.S. university host; asterisked hosts in
	// Table 1 sit on the Internet2 backbone.
	KindUniversity Kind = iota
	// KindISP is a commercial ISP-colocated host.
	KindISP
	// KindCompany is a private company host.
	KindCompany
	// KindBroadband is a cable-modem or DSL host.
	KindBroadband
	// KindIntl is an international (non-US/Canada) host.
	KindIntl
)

// String returns a short label for the kind.
func (k Kind) String() string {
	switch k {
	case KindUniversity:
		return "university"
	case KindISP:
		return "isp"
	case KindCompany:
		return "company"
	case KindBroadband:
		return "broadband"
	case KindIntl:
		return "international"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AccessClass buckets a host's last-mile link quality. The paper spans
// "OC3s to cable modems and DSL links"; the class drives the access-link
// loss/outage parameters in the simulator.
type AccessClass uint8

// Access classes, from best to worst.
const (
	// AccessBackboneGrade is an OC3-or-better connection (large ISPs,
	// Internet2 universities).
	AccessBackboneGrade AccessClass = iota
	// AccessEnterprise is a well-provisioned corporate or campus link.
	AccessEnterprise
	// AccessSmallISP is a small/medium ISP with thinner upstreams.
	AccessSmallISP
	// AccessBroadband is a residential cable/DSL line, the lossiest
	// class (the paper's worst path ran to a DSL line).
	AccessBroadband
)

// String returns a short label for the access class.
func (a AccessClass) String() string {
	switch a {
	case AccessBackboneGrade:
		return "backbone-grade"
	case AccessEnterprise:
		return "enterprise"
	case AccessSmallISP:
		return "small-isp"
	case AccessBroadband:
		return "broadband"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Host is one testbed node.
type Host struct {
	// Name is the testbed label from Table 1 (e.g. "MIT", "Korea").
	Name string
	// Location is the city/region string from Table 1.
	Location string
	// Kind is the Table 2 category.
	Kind Kind
	// Access is the last-mile quality class.
	Access AccessClass
	// Internet2 marks the asterisked U.S. universities of Table 1.
	Internet2 bool
	// In2002 marks hosts present in the 2002 datasets (bold in
	// Table 1); the 2002 testbed had 17 hosts.
	In2002 bool
	// LonDeg/LatDeg embed the host on the globe (approximate city
	// coordinates); used only to synthesize propagation delays.
	LonDeg, LatDeg float64
}

// Testbed is an immutable set of hosts with a precomputed base latency
// matrix.
type Testbed struct {
	hosts []Host
	// baseOneWay[i][j] is the propagation+transmission floor for the
	// direct path i→j.
	baseOneWay [][]time.Duration
}

// N returns the number of hosts.
func (tb *Testbed) N() int { return len(tb.hosts) }

// Host returns host i.
func (tb *Testbed) Host(i int) Host { return tb.hosts[i] }

// BaseOneWay returns the base (uncongested) one-way latency of the direct
// path from host i to host j.
func (tb *Testbed) BaseOneWay(i, j int) time.Duration {
	return tb.baseOneWay[i][j]
}

// Index returns the index of the host with the given Table 1 name, or -1.
func (tb *Testbed) Index(name string) int {
	for i, h := range tb.hosts {
		if h.Name == name {
			return i
		}
	}
	return -1
}

// Paths returns the number of distinct one-way paths (N*(N-1)); the paper
// speaks of "nearly nine hundred distinct one-way paths" for N=30.
func (tb *Testbed) Paths() int { return tb.N() * (tb.N() - 1) }

// speedFactor converts great-circle distance to one-way delay. Light in
// fiber covers ~200 km/ms; real paths are circuitous, so we apply a
// route-stretch factor. The constants are tuned so that the mean direct
// one-way latency across the 2003 testbed lands near the paper's 54 ms.
const (
	fiberKMPerMS = 200.0
	routeStretch = 1.9
)

// earthRadiusKM is the mean Earth radius.
const earthRadiusKM = 6371.0

// greatCircleKM returns the great-circle distance between two points
// given in degrees.
func greatCircleKM(lat1, lon1, lat2, lon2 float64) float64 {
	const d = math.Pi / 180
	φ1, φ2 := lat1*d, lat2*d
	Δφ := (lat2 - lat1) * d
	Δλ := (lon2 - lon1) * d
	a := float64(math.Sin(Δφ/2)*math.Sin(Δφ/2)) +
		float64(math.Cos(φ1)*math.Cos(φ2)*math.Sin(Δλ/2)*math.Sin(Δλ/2))
	return 2 * earthRadiusKM * math.Asin(math.Min(1, math.Sqrt(a)))
}

// accessExtra is the serialization/first-hop delay added per endpoint by
// access class: broadband lines add several milliseconds.
func accessExtra(a AccessClass) time.Duration {
	switch a {
	case AccessBackboneGrade:
		return 200 * time.Microsecond
	case AccessEnterprise:
		return 500 * time.Microsecond
	case AccessSmallISP:
		return 1500 * time.Microsecond
	case AccessBroadband:
		return 8 * time.Millisecond
	default:
		return time.Millisecond
	}
}

// New builds a Testbed from a host list, computing the base latency
// matrix from the geographic embedding and access classes.
func New(hosts []Host) *Testbed {
	tb := &Testbed{hosts: hosts}
	n := len(hosts)
	tb.baseOneWay = make([][]time.Duration, n)
	flat := make([]time.Duration, n*n)
	for i := range tb.baseOneWay {
		tb.baseOneWay[i], flat = flat[:n], flat[n:]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			km := greatCircleKM(hosts[i].LatDeg, hosts[i].LonDeg,
				hosts[j].LatDeg, hosts[j].LonDeg)
			ms := km / fiberKMPerMS * routeStretch
			d := time.Duration(ms*float64(time.Millisecond)) +
				accessExtra(hosts[i].Access) + accessExtra(hosts[j].Access) +
				500*time.Microsecond // forwarding/processing floor
			tb.baseOneWay[i][j] = d
		}
	}
	return tb
}

// RON2003 returns the 30-host testbed of Table 1 (the RON2003 dataset).
func RON2003() *Testbed { return New(ron2003Hosts()) }

// RON2002 returns the 17-host 2002 testbed (the bold hosts of Table 1,
// used by the RONnarrow and RONwide datasets).
func RON2002() *Testbed {
	all := ron2003Hosts()
	sub := make([]Host, 0, 17)
	for _, h := range all {
		if h.In2002 {
			sub = append(sub, h)
		}
	}
	return New(sub)
}

// ron2003Hosts reproduces Table 1. Coordinates are approximate city
// centers; they only need to induce a realistic latency spread. The
// In2002 markings select 17 hosts matching the 2002 testbed's size and
// the categories in Table 2, including the pathology sites (Cornell,
// Korea) called out in §4.5.
func ron2003Hosts() []Host {
	return []Host{
		{Name: "Aros", Location: "Salt Lake City, UT", Kind: KindISP, Access: AccessSmallISP, In2002: true, LonDeg: -111.89, LatDeg: 40.76},
		{Name: "AT&T", Location: "Florham Park, NJ", Kind: KindISP, Access: AccessBackboneGrade, LonDeg: -74.39, LatDeg: 40.79},
		{Name: "CA-DSL", Location: "Foster City, CA", Kind: KindBroadband, Access: AccessBroadband, In2002: true, LonDeg: -122.27, LatDeg: 37.56},
		{Name: "CCI", Location: "Salt Lake City, UT", Kind: KindCompany, Access: AccessEnterprise, In2002: true, LonDeg: -111.89, LatDeg: 40.77},
		{Name: "CMU", Location: "Pittsburgh, PA", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, In2002: true, LonDeg: -79.94, LatDeg: 40.44},
		{Name: "Coloco", Location: "Laurel, MD", Kind: KindISP, Access: AccessSmallISP, LonDeg: -76.85, LatDeg: 39.10},
		{Name: "Cornell", Location: "Ithaca, NY", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, In2002: true, LonDeg: -76.48, LatDeg: 42.45},
		{Name: "Cybermesa", Location: "Santa Fe, NM", Kind: KindISP, Access: AccessSmallISP, LonDeg: -105.94, LatDeg: 35.69},
		{Name: "Digitalwest", Location: "San Luis Obispo, CA", Kind: KindISP, Access: AccessSmallISP, LonDeg: -120.66, LatDeg: 35.28},
		{Name: "GBLX-AMS", Location: "Amsterdam, Netherlands", Kind: KindIntl, Access: AccessBackboneGrade, LonDeg: 4.90, LatDeg: 52.37},
		{Name: "GBLX-ANA", Location: "Anaheim, CA", Kind: KindISP, Access: AccessBackboneGrade, LonDeg: -117.91, LatDeg: 33.84},
		{Name: "GBLX-CHI", Location: "Chicago, IL", Kind: KindISP, Access: AccessBackboneGrade, LonDeg: -87.63, LatDeg: 41.88},
		{Name: "GBLX-JFK", Location: "New York City, NY", Kind: KindISP, Access: AccessBackboneGrade, LonDeg: -73.78, LatDeg: 40.64},
		{Name: "GBLX-LON", Location: "London, England", Kind: KindIntl, Access: AccessBackboneGrade, LonDeg: -0.13, LatDeg: 51.51},
		{Name: "Intel", Location: "Palo Alto, CA", Kind: KindCompany, Access: AccessEnterprise, In2002: true, LonDeg: -122.14, LatDeg: 37.44},
		{Name: "Korea", Location: "KAIST in Korea", Kind: KindIntl, Access: AccessEnterprise, In2002: true, LonDeg: 127.36, LatDeg: 36.37},
		{Name: "Lulea", Location: "Lulea, Sweden", Kind: KindIntl, Access: AccessEnterprise, In2002: true, LonDeg: 22.15, LatDeg: 65.58},
		{Name: "MA-Cable", Location: "Cambridge, MA", Kind: KindBroadband, Access: AccessBroadband, In2002: true, LonDeg: -71.11, LatDeg: 42.37},
		{Name: "Mazu", Location: "Boston, MA", Kind: KindCompany, Access: AccessEnterprise, In2002: true, LonDeg: -71.06, LatDeg: 42.36},
		{Name: "MIT", Location: "Cambridge, MA", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, In2002: true, LonDeg: -71.09, LatDeg: 42.36},
		{Name: "MIT-main", Location: "Cambridge, MA", Kind: KindUniversity, Access: AccessBackboneGrade, In2002: true, LonDeg: -71.09, LatDeg: 42.36},
		{Name: "NC-Cable", Location: "Durham, NC", Kind: KindBroadband, Access: AccessBroadband, In2002: true, LonDeg: -78.90, LatDeg: 35.99},
		{Name: "Nortel", Location: "Toronto, Canada", Kind: KindCompany, Access: AccessEnterprise, In2002: true, LonDeg: -79.38, LatDeg: 43.65},
		{Name: "NYU", Location: "New York, NY", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, In2002: true, LonDeg: -73.99, LatDeg: 40.73},
		{Name: "PDI", Location: "Palo Alto, CA", Kind: KindCompany, Access: AccessEnterprise, LonDeg: -122.16, LatDeg: 37.45},
		{Name: "PSG", Location: "Bainbridge Island, WA", Kind: KindISP, Access: AccessSmallISP, LonDeg: -122.52, LatDeg: 47.63},
		{Name: "UCSD", Location: "San Diego, CA", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, LonDeg: -117.23, LatDeg: 32.88},
		{Name: "Utah", Location: "Salt Lake City, UT", Kind: KindUniversity, Access: AccessBackboneGrade, Internet2: true, In2002: true, LonDeg: -111.84, LatDeg: 40.76},
		{Name: "Vineyard", Location: "Cambridge, MA", Kind: KindISP, Access: AccessSmallISP, In2002: true, LonDeg: -71.10, LatDeg: 42.37},
		{Name: "VU-NL", Location: "Amsterdam, Netherlands", Kind: KindIntl, Access: AccessEnterprise, LonDeg: 4.87, LatDeg: 52.33},
	}
}
