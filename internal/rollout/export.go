package rollout

import "time"

// Breaker exports the fallback-storm circuit breaker for use outside the
// rollout controller (the chaos engine wires one per breaker-arm function
// as a storm dampener). It is the same state machine the canary
// controller drives; see breaker.go for the semantics.
type Breaker struct {
	b *breaker
}

// NewBreaker builds a breaker with the given config (zero fields are not
// defaulted; use DefaultBreakerConfig as the base).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{b: newBreaker(cfg)}
}

// Observe records one request served by the debloated artifact and
// returns the transition it caused: "open", "reopen", "close", or "".
func (br *Breaker) Observe(at time.Duration, fallback bool) string {
	return br.b.observe(at, fallback)
}

// TryHalfOpen moves open → half-open once the cooldown has elapsed,
// reporting whether it did.
func (br *Breaker) TryHalfOpen(now time.Duration) bool {
	return br.b.tryHalfOpen(now)
}

// State reports the current state: "CLOSED", "OPEN", or "HALF_OPEN".
func (br *Breaker) State() string { return br.b.state.String() }
