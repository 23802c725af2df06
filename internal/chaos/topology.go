package chaos

import "time"

// splitmix64 is the same finalizer the fleet exemplar sets key with: a
// cheap bijective mixer whose output passes through every 64-bit value.
// Chaos draws derive from chains of it so a decision depends only on
// (seed, function, sequence, purpose) — never on replay schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to a uniform float64 in [0, 1) using the top 53 bits.
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Purpose salts: each independent decision about the same attempt hashes
// with its own salt, so e.g. the hedging redraw never correlates with the
// admission draw for the same request.
const (
	saltZone       = 0x7A6F6E65 // "zone": fault-domain assignment
	saltHost       = 0x686F7374 // "host": host within the zone
	saltOutage     = 0x6F757467 // "outg": zone-outage strike + per-attempt draws
	saltThrottle   = 0x7468726F // "thro": throttle-storm strike + per-attempt draws
	saltCongest    = 0x636F6E67 // "cong": congestion-collapse strike + attempts
	saltShed       = 0x73686564 // "shed": load-shedding draw
	saltLatency    = 0x6C617463 // "latc": latency-storm stretch draw
	saltFallback   = 0x66616C6C // "fall": fallback-path draw
	saltChurnPick  = 0x63687231 // "chr1": is this host in the churn wave?
	saltChurnPhase = 0x63687232 // "chr2": when inside the wave it recycles
)

// Topology is the synthetic fault-domain layout: functions hash onto
// hosts, hosts group into zones. Incidents address zones; churn waves
// address hosts.
type Topology struct {
	Zones        int
	HostsPerZone int
}

// DefaultTopology is the engine's fault-domain layout, a small region:
// 4 zones of 16 hosts.
func DefaultTopology() Topology {
	return Topology{Zones: 4, HostsPerZone: 16}
}

// ZoneOf places a function key in its zone.
func (t Topology) ZoneOf(key uint64) int {
	return int(splitmix64(key^saltZone) % uint64(t.Zones))
}

// HostOf places a function key on a host, globally indexed across zones
// so a churn wave can address any host directly.
func (t Topology) HostOf(key uint64) int {
	zone := t.ZoneOf(key)
	local := int(splitmix64(key^saltHost) % uint64(t.HostsPerZone))
	return zone*t.HostsPerZone + local
}

// draw returns the uniform [0,1) variate for one purpose-salted decision
// about one attempt: key identifies the function, seq the arrival, try
// the attempt within the arrival's retry loop. Salts are mixed through
// splitmix64 before the (seq, try) offset so distinct purposes land in
// distant regions of the hash space and cannot alias.
func draw(key uint64, salt uint64, seq, try int) float64 {
	return unit(splitmix64(key ^ splitmix64(splitmix64(salt)+uint64(seq)*16+uint64(try))))
}

// stagger maps a hash into [0, span) — used to spread churn recycles
// across an incident window.
func stagger(h uint64, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	return time.Duration(unit(h) * float64(span))
}
