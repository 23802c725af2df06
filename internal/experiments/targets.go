package experiments

// Renderer is what every driver returns: typed rows plus their text table.
type Renderer interface{ Render() string }

// Target is one table, figure, or extension driver: its command-line name,
// a description that is a phrase of the title its Render prints, and the
// suite method that produces it.
type Target struct {
	Name string
	Desc string
	Run  func(*Suite) (Renderer, error)
}

// Targets lists every driver in presentation order. It is the single
// source of truth: cmd/experiments derives its usage string, -list, and
// the default "all" set from it, and the render tests iterate it.
var Targets = []Target{
	{"fig1", "cold/warm start breakdown", func(s *Suite) (Renderer, error) { return s.Figure1() }},
	{"table1", "benchmarked applications", func(s *Suite) (Renderer, error) { return s.Table1() }},
	{"fig2", "billed duration and cost of cold starts", func(s *Suite) (Renderer, error) { return s.Figure2() }},
	{"fig8", "λ-trim improvements (cold starts)", func(s *Suite) (Renderer, error) { return s.Figure8() }},
	{"table2", "λ-trim (measured) vs FaaSLight & Vulture (reported)", func(s *Suite) (Renderer, error) { return s.Table2() }},
	{"table2x", "all three debloaters run and measured here", func(s *Suite) (Renderer, error) { return s.Table2Ext() }},
	{"fig9", "scoring-method ablation", func(s *Suite) (Renderer, error) { return s.Figure9() }},
	{"table3", "debloating time (simulated), attribute efficacy, checkpoint size", func(s *Suite) (Renderer, error) { return s.Table3() }},
	{"fig10", "varying K (number of modules to debloat)", func(s *Suite) (Renderer, error) { return s.Figure10() }},
	{"fig11", "warm start E2E impact of λ-trim", func(s *Suite) (Renderer, error) { return s.Figure11() }},
	{"fig12", "initialization time: original vs C/R vs λ-trim vs C/R+λ-trim", func(s *Suite) (Renderer, error) { return s.Figure12() }},
	{"fig13", "CDF of SnapStart cost over total cost", func(s *Suite) (Renderer, error) { return s.Figure13() }},
	{"fig14", "amortized per-invocation costs with SnapStart", func(s *Suite) (Renderer, error) { return s.Figure14() }},
	{"table4", "E2E latencies (s) when triggering the fallback", func(s *Suite) (Renderer, error) { return s.Table4() }},
	{"ext-tune", "power-tuned cost, original vs λ-trim", func(s *Suite) (Renderer, error) { return s.ExtPowerTune() }},
	{"reliability", "under injected faults", func(s *Suite) (Renderer, error) { return s.Reliability() }},
	{"monitor", "replay under SLO burn-rate alerting", func(s *Suite) (Renderer, error) { return s.Monitor() }},
	{"rollout", "closed-loop canary, breaker, and self-heal", func(s *Suite) (Renderer, error) { return s.Rollout() }},
	{"fleet", "fleet replay", func(s *Suite) (Renderer, error) { return s.Fleet() }},
	{"query", "metrics query engine", func(s *Suite) (Renderer, error) { return s.Query() }},
	{"chaos", "chaos incident day", func(s *Suite) (Renderer, error) { return s.Chaos() }},
}
