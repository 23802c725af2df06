package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faas"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 12 — initialization time: λ-trim vs C/R vs C/R + λ-trim
// ---------------------------------------------------------------------------

// Figure12Row is one app's four-variant comparison.
type Figure12Row struct {
	App         string
	Original    time.Duration
	OriginalCR  time.Duration
	Trimmed     time.Duration
	TrimmedCR   time.Duration
	CkptOrigMB  float64
	CkptTrimMB  float64
	CkptSavings float64
}

// Figure12Result aggregates rows.
type Figure12Result struct {
	Rows []Figure12Row
	// AvgCkptSaving mirrors Table 3's checkpoint column (paper: ~11%).
	AvgCkptSaving float64
}

// Figure12 compares initialization latency across the four variants.
func (s *Suite) Figure12() (*Figure12Result, error) {
	out := &Figure12Result{}
	var savings []float64
	for _, name := range AllNames() {
		res, err := s.Debloat(name)
		if err != nil {
			return nil, err
		}
		cmp, err := checkpoint.CompareInit(res.Original, res.App)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure12Row{
			App:         name,
			Original:    cmp.Original,
			OriginalCR:  cmp.OriginalCR,
			Trimmed:     cmp.Debloated,
			TrimmedCR:   cmp.DebloatedCR,
			CkptOrigMB:  cmp.OriginalCkptMB,
			CkptTrimMB:  cmp.DebloatedCkptMB,
			CkptSavings: cmp.CkptSizeSavings,
		})
		savings = append(savings, cmp.CkptSizeSavings)
	}
	out.AvgCkptSaving = stats.Mean(savings)
	return out, nil
}

// Render prints the comparison.
func (f *Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12 — initialization time: original vs C/R vs λ-trim vs C/R+λ-trim\n")
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %12s %16s\n",
		"Application", "Original", "C/R", "λ-trim", "C/R+λ-trim", "Ckpt MB(o->t)")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-18s %9.2fs %9.2fs %9.2fs %11.2fs %8.0f ->%5.0f\n",
			r.App, r.Original.Seconds(), r.OriginalCR.Seconds(),
			r.Trimmed.Seconds(), r.TrimmedCR.Seconds(), r.CkptOrigMB, r.CkptTrimMB)
	}
	fmt.Fprintf(&b, "average checkpoint shrink from debloating: %.1f%%\n", 100*f.AvgCkptSaving)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 13 — CDF of SnapStart cost share over the simulated Azure trace
// ---------------------------------------------------------------------------

// Figure13KeepAlives are the paper's three keep-alive settings.
var Figure13KeepAlives = []time.Duration{1 * time.Minute, 15 * time.Minute, 100 * time.Minute}

// Figure13Curve is one keep-alive setting's CDF.
type Figure13Curve struct {
	KeepAlive time.Duration
	// Ratios are each function's SnapStart-cost share of total cost.
	Ratios []float64
	CDF    []stats.CDFPoint
	Median float64
}

// Figure13Result holds all curves.
type Figure13Result struct {
	Curves []Figure13Curve
}

// Figure13 simulates every trace function under SnapStart and computes the
// CDF of snapstart-cost / total-cost per keep-alive setting.
func (s *Suite) Figure13() (*Figure13Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig())
	pricing := s.Platform.Pricing
	out := &Figure13Result{}
	for _, ka := range Figure13KeepAlives {
		var ratios []float64
		for i := range tr.Functions {
			fn := &tr.Functions[i]
			if len(fn.Arrivals) == 0 {
				continue
			}
			dur := time.Duration(fn.DurationMS * float64(time.Millisecond))
			pool := trace.SimulatePoolStream(trace.Slice(fn.Arrivals), dur, ka, nil)

			// Function state checkpoint: process base plus its working set.
			ckptMB := checkpoint.ProcessBaseMB + fn.MemoryMB*0.9
			ckptGB := ckptMB / 1024

			memMB := pricing.ConfigureMemory(fn.MemoryMB)
			billed := pricing.BillDuration(dur)
			invocationUSD := float64(pool.Invocations) * pricing.Cost(billed, memMB)

			snapUSD := ckptGB*checkpoint.CacheUSDPerGBSecond*tr.Period.Seconds() +
				float64(pool.ColdStarts)*ckptGB*checkpoint.RestoreUSDPerGB

			ratios = append(ratios, snapUSD/(snapUSD+invocationUSD))
		}
		out.Curves = append(out.Curves, Figure13Curve{
			KeepAlive: ka,
			Ratios:    ratios,
			CDF:       stats.CDF(ratios),
			Median:    stats.Median(ratios),
		})
	}
	return out, nil
}

// Render prints CDF samples per curve.
func (f *Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13 — CDF of SnapStart cost over total cost (simulated Azure trace)\n")
	quantiles := []float64{10, 25, 50, 75, 90}
	fmt.Fprintf(&b, "%-16s", "Keep-alive")
	for _, q := range quantiles {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("p%.0f", q))
	}
	b.WriteString("\n")
	for _, c := range f.Curves {
		fmt.Fprintf(&b, "%-16s", c.KeepAlive)
		for _, q := range quantiles {
			fmt.Fprintf(&b, " %7.1f%%", 100*stats.Percentile(c.Ratios, q))
		}
		b.WriteString("\n")
	}
	for _, c := range f.Curves {
		fmt.Fprintf(&b, "median SnapStart share at keep-alive %v: %.0f%%\n", c.KeepAlive, 100*c.Median)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 14 — amortized invocation and SnapStart costs per benchmarked app
// ---------------------------------------------------------------------------

// Figure14Row is one app's amortized cost breakdown, original vs λ-trim.
type Figure14Row struct {
	App string
	// MatchedFn is the ID of the most similar trace function.
	MatchedFn   int
	Invocations int
	ColdStarts  int

	// Per-invocation amortized USD.
	InvocationOrig, CacheRestoreOrig float64
	InvocationTrim, CacheRestoreTrim float64

	// TotalSaving is the λ-trim reduction of (invocation + cache+restore).
	TotalSaving float64
}

// Figure14Result aggregates rows.
type Figure14Result struct {
	Rows []Figure14Row
	// AvgSaving / MaxSaving across apps (paper: avg ~11%, up to 42%).
	AvgSaving, MaxSaving float64
}

// Figure14 simulates each benchmarked app over 24 hours of its most
// similar trace function's arrivals, with SnapStart.
func (s *Suite) Figure14() (*Figure14Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig())
	pricing := s.Platform.Pricing
	const keepAlive = 15 * time.Minute

	out := &Figure14Result{}
	var savings []float64
	for _, name := range AllNames() {
		res, err := s.Debloat(name)
		if err != nil {
			return nil, err
		}
		origInv, err := faas.MeasureColdStart(res.Original, s.Platform)
		if err != nil {
			return nil, err
		}
		trimInv, err := faas.MeasureColdStart(res.App, s.Platform)
		if err != nil {
			return nil, err
		}
		origCkpt, err := checkpoint.Take(res.Original)
		if err != nil {
			return nil, err
		}
		trimCkpt, err := checkpoint.Take(res.App)
		if err != nil {
			return nil, err
		}

		fn := tr.NearestFunction(origInv.PeakMB, origInv.Exec.Seconds()*1000)
		if fn == nil || len(fn.Arrivals) == 0 {
			continue
		}
		dur := origInv.Exec
		pool := trace.SimulatePoolStream(trace.Slice(fn.Arrivals), dur, keepAlive, nil)
		n := float64(pool.Invocations)

		amortize := func(inv *faas.Invocation, ckpt *checkpoint.Checkpoint) (float64, float64) {
			memMB := pricing.ConfigureMemory(inv.PeakMB)
			billed := pricing.BillDuration(inv.Exec)
			invocationUSD := n * pricing.Cost(billed, memMB)
			snapUSD := ckpt.CacheCostUSD(tr.Period) +
				float64(pool.ColdStarts)*ckpt.RestoreCostUSD()
			return invocationUSD / n, snapUSD / n
		}
		invO, snapO := amortize(origInv, origCkpt)
		invT, snapT := amortize(trimInv, trimCkpt)
		saving := stats.Improvement(invO+snapO, invT+snapT)
		savings = append(savings, saving)
		out.Rows = append(out.Rows, Figure14Row{
			App: name, MatchedFn: fn.ID,
			Invocations: pool.Invocations, ColdStarts: pool.ColdStarts,
			InvocationOrig: invO, CacheRestoreOrig: snapO,
			InvocationTrim: invT, CacheRestoreTrim: snapT,
			TotalSaving: saving,
		})
	}
	out.AvgSaving = stats.Mean(savings)
	out.MaxSaving = stats.Max(savings)
	return out, nil
}

// Render prints the amortized breakdown.
func (f *Figure14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14 — amortized per-invocation costs with SnapStart (24h simulated trace)\n")
	fmt.Fprintf(&b, "%-18s %6s %6s %14s %14s %14s %14s %8s\n",
		"Application", "Invoc", "Cold", "Inv(orig)$", "C+R(orig)$", "Inv(trim)$", "C+R(trim)$", "Saving")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-18s %6d %6d %14.3g %14.3g %14.3g %14.3g %7.1f%%\n",
			r.App, r.Invocations, r.ColdStarts,
			r.InvocationOrig, r.CacheRestoreOrig, r.InvocationTrim, r.CacheRestoreTrim,
			100*r.TotalSaving)
	}
	fmt.Fprintf(&b, "total-cost reduction: avg %.1f%%, max %.1f%% (paper: avg 11%%, up to 42%%)\n",
		100*f.AvgSaving, 100*f.MaxSaving)
	return b.String()
}
