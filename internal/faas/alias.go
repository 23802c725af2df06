package faas

import (
	"fmt"

	"repro/internal/appspec"
	"repro/internal/obs"
)

// Alias-based traffic splitting. An alias is a routable name that forwards
// each invocation to one of several deployed functions, drawn by weight.
// This is the platform half of a canary rollout: the controller adjusts the
// weights, the platform keeps the draw deterministic.

// aliasSeedSalt decorrelates the alias routing stream from the fault
// injection stream so that adding or removing an alias never shifts which
// requests fault.
const aliasSeedSalt = 0x51a5a11a5

// AliasRoute is one weighted target of an alias.
type AliasRoute struct {
	Target string
	Weight float64
}

type aliasEntry struct {
	routes []AliasRoute
	total  float64
}

// SetAlias installs (or replaces) an alias that splits traffic across the
// given routes in proportion to their weights. Every target must already be
// deployed and every weight must be positive. An alias may not shadow a
// deployed function name.
func (p *Platform) SetAlias(name string, routes ...AliasRoute) error {
	if len(routes) == 0 {
		return fmt.Errorf("faas: alias %q needs at least one route", name)
	}
	if _, exists := p.fns[name]; exists {
		return fmt.Errorf("faas: alias %q would shadow a deployed function", name)
	}
	total := 0.0
	for _, r := range routes {
		if r.Weight <= 0 {
			return fmt.Errorf("faas: alias %q route %q has non-positive weight %v", name, r.Target, r.Weight)
		}
		if _, ok := p.fns[r.Target]; !ok {
			return fmt.Errorf("faas: alias %q routes to unknown function %q", name, r.Target)
		}
		total += r.Weight
	}
	cp := make([]AliasRoute, len(routes))
	copy(cp, routes)
	p.aliases[name] = &aliasEntry{routes: cp, total: total}
	if tr := p.cfg.Tracer; tr != nil {
		tr.Emit("faas.alias.set", p.now, obs.String("alias", name), obs.Int("routes", int64(len(cp))))
	}
	return nil
}

// resolveAlias maps an invoked name to the deployment that should serve it.
// Single-route aliases resolve without consuming a random draw, so a rollout
// pinned at 0% or 100% replays byte-identically to one with no alias at all.
func (p *Platform) resolveAlias(name string) string {
	e, ok := p.aliases[name]
	if !ok {
		return name
	}
	if len(e.routes) == 1 {
		return e.routes[0].Target
	}
	x := p.aliasRng.Float64() * e.total
	for _, r := range e.routes {
		if x < r.Weight {
			return r.Target
		}
		x -= r.Weight
	}
	return e.routes[len(e.routes)-1].Target
}

// VersionName is the deployed name of a function version: "base@version".
func VersionName(base, version string) string {
	return base + "@" + version
}

// DeployVersion deploys app under the versioned name "base@version" and
// returns that name. The app is cloned first, so the caller's copy keeps
// its own name.
func (p *Platform) DeployVersion(base, version string, app *appspec.App) string {
	clone := app.Clone()
	clone.Name = VersionName(base, version)
	p.Deploy(clone)
	return clone.Name
}

// SetFallback wires name's AttributeError fallback to an already-deployed
// function, without the deploy-both convenience of DeployWithFallback.
func (p *Platform) SetFallback(name, fallbackName string) error {
	d, ok := p.fns[name]
	if !ok {
		return fmt.Errorf("faas: no function named %q", name)
	}
	if _, ok := p.fns[fallbackName]; !ok {
		return fmt.Errorf("faas: no fallback function named %q", fallbackName)
	}
	d.fallback = fallbackName
	return nil
}
