package rollout

import (
	"time"
)

// The fallback-storm circuit breaker. The §5.4 wrapper makes over-trimmed
// functions fail soft: every storm request runs the debloated artifact to
// its AttributeError and then the original on top, billing both (Eq. 1
// twice). The breaker notices the storm — a sliding-window fallback rate
// or a run of consecutive fallbacks — and opens, routing traffic straight
// to the original so the doomed attempt (and its bill) is skipped. After a
// cooldown it half-opens and probes; enough clean probes close it again.

// BreakerConfig tunes the fallback-storm breaker.
type BreakerConfig struct {
	// Window is the sliding sim-time window for the fallback rate.
	Window time.Duration
	// MinRequests is the minimum samples in the window before the rate
	// can trip (avoids opening on one unlucky request).
	MinRequests int
	// FallbackRate opens the breaker when the windowed rate reaches it.
	FallbackRate float64
	// Consecutive opens the breaker on this many fallbacks in a row,
	// regardless of rate.
	Consecutive int
	// Cooldown is how long the breaker stays open before probing.
	Cooldown time.Duration
	// Probes is the number of consecutive clean half-open requests
	// needed to close.
	Probes int
}

// DefaultBreakerConfig matches the experiment's traffic scale: storms of a
// few requests per minute trip within a window or two.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:       2 * time.Minute,
		MinRequests:  8,
		FallbackRate: 0.5,
		Consecutive:  5,
		Cooldown:     5 * time.Minute,
		Probes:       3,
	}
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "OPEN"
	case breakerHalfOpen:
		return "HALF_OPEN"
	default:
		return "CLOSED"
	}
}

type breakerSample struct {
	at       time.Duration
	fallback bool
}

type breaker struct {
	cfg      BreakerConfig
	state    breakerState
	window   []breakerSample
	consec   int // consecutive fallbacks while closed
	probes   int // consecutive clean probes while half-open
	openedAt time.Duration
	opens    int
	// rate and count capture the window at the moment of the last trip,
	// for the event log.
	rate  float64
	count int
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg}
}

// prune drops window samples older than Window. Samples arrive in time
// order, so expiry is a prefix cut, compacted to the front of the backing
// array: re-slicing past the prefix would shrink the capacity and make
// every later append reallocate.
func (b *breaker) prune(now time.Duration) {
	cut := now - b.cfg.Window
	i := 0
	for i < len(b.window) && b.window[i].at <= cut {
		i++
	}
	if i > 0 {
		b.window = append(b.window[:0], b.window[i:]...)
	}
}

// observe records one request served by the debloated artifact and returns
// the transition it caused: "open", "reopen", "close", or "".
func (b *breaker) observe(at time.Duration, fallback bool) string {
	switch b.state {
	case breakerOpen:
		// Shouldn't happen (open routes away from the artifact), but a
		// request already in flight when the breaker opened is harmless.
		return ""
	case breakerHalfOpen:
		if fallback {
			b.state = breakerOpen
			b.openedAt = at
			b.opens++
			b.probes = 0
			return "reopen"
		}
		b.probes++
		if b.probes >= b.cfg.Probes {
			b.state = breakerClosed
			b.window = nil
			b.consec = 0
			b.probes = 0
			return "close"
		}
		return ""
	}
	// Closed: maintain the window and the consecutive run.
	b.prune(at)
	b.window = append(b.window, breakerSample{at: at, fallback: fallback})
	if fallback {
		b.consec++
	} else {
		b.consec = 0
	}
	fallbacks := 0
	for _, s := range b.window {
		if s.fallback {
			fallbacks++
		}
	}
	rate := float64(fallbacks) / float64(len(b.window))
	trip := (b.cfg.Consecutive > 0 && b.consec >= b.cfg.Consecutive) ||
		(b.cfg.MinRequests > 0 && len(b.window) >= b.cfg.MinRequests && rate >= b.cfg.FallbackRate)
	if trip {
		b.state = breakerOpen
		b.openedAt = at
		b.opens++
		b.rate = rate
		b.count = len(b.window)
		b.window = nil
		b.consec = 0
		return "open"
	}
	return ""
}

// tryHalfOpen moves open → half-open once the cooldown has elapsed.
func (b *breaker) tryHalfOpen(now time.Duration) bool {
	if b.state != breakerOpen || now < b.openedAt+b.cfg.Cooldown {
		return false
	}
	b.state = breakerHalfOpen
	b.probes = 0
	return true
}
