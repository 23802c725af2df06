// costexplorer simulates a day of trace-driven traffic against one
// application and explores the cost landscape the paper's §8.6 maps out:
// how keep-alive policy changes the cold-start rate, what SnapStart's
// cache+restore fees add, and how much λ-trim claws back.
//
// Run with: go run ./examples/costexplorer [app]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/checkpoint"
	"repro/internal/debloat"
	"repro/internal/faas"
	"repro/internal/trace"
)

func main() {
	appName := "spacy"
	if len(os.Args) > 1 {
		appName = os.Args[1]
	}
	app := appcorpus.MustBuild(appName)

	// Optimize the app once.
	res, err := debloat.Run(app, debloat.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	cfg := faas.DefaultConfig()
	orig, err := faas.MeasureColdStart(res.Original, cfg)
	if err != nil {
		log.Fatal(err)
	}
	trim, err := faas.MeasureColdStart(res.App, cfg)
	if err != nil {
		log.Fatal(err)
	}
	origCkpt, err := checkpoint.Take(res.Original)
	if err != nil {
		log.Fatal(err)
	}
	trimCkpt, err := checkpoint.Take(res.App)
	if err != nil {
		log.Fatal(err)
	}

	// Find a similar function in a synthetic Azure-like trace and replay
	// its arrivals.
	tr := trace.Generate(trace.DefaultGenConfig())
	fn := tr.NearestFunction(orig.PeakMB, orig.Exec.Seconds()*1000)
	fmt.Printf("app %s matched trace function #%d (%.0f MB, %.0f ms, %d invocations/day)\n\n",
		appName, fn.ID, fn.MemoryMB, fn.DurationMS, len(fn.Arrivals))

	pricing := cfg.Pricing
	fmt.Printf("%-12s %8s %8s | %12s %12s %12s\n",
		"keep-alive", "cold", "warm", "invoc $", "snapstart $", "with λ-trim $")
	for _, ka := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour} {
		pool := trace.SimulatePoolStream(trace.Slice(fn.Arrivals), orig.Exec, ka, nil)

		costOf := func(inv *faas.Invocation, ckpt *checkpoint.Checkpoint) (float64, float64) {
			memMB := pricing.ConfigureMemory(inv.PeakMB)
			// With SnapStart, cold starts restore instead of re-importing,
			// so only execution is billed as duration.
			invocUSD := float64(pool.Invocations) * pricing.Cost(pricing.BillDuration(inv.Exec), memMB)
			snapUSD := ckpt.CacheCostUSD(tr.Period) + float64(pool.ColdStarts)*ckpt.RestoreCostUSD()
			return invocUSD, snapUSD
		}
		invO, snapO := costOf(orig, origCkpt)
		invT, snapT := costOf(trim, trimCkpt)
		fmt.Printf("%-12s %8d %8d | %12.4f %12.4f %12.4f\n",
			ka, pool.ColdStarts, pool.WarmStarts, invO, snapO, invT+snapT)
		_ = invT
	}

	fmt.Printf("\ncheckpoint: %.0f MB -> %.0f MB after λ-trim; restore %v -> %v\n",
		origCkpt.SizeMB, trimCkpt.SizeMB, origCkpt.RestoreTime(), trimCkpt.RestoreTime())
	fmt.Printf("plain cold start: init %v -> %v after λ-trim\n", orig.Init, trim.Init)
}
