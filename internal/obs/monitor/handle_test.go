package monitor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// dumpStore renders everything a store exposes — names, totals, dropped
// counts, and every in-ring window — so two stores compare as strings.
func dumpStore(st *Store) string {
	var b strings.Builder
	for _, name := range st.Names() {
		fmt.Fprintf(&b, "%s total=%+v dropped=%d\n", name, st.Total(name), st.Dropped(name))
		st.Scan(name, 0, 1<<62, func(start time.Duration, r Rollup) {
			fmt.Fprintf(&b, "  %v %+v\n", start, r)
		})
	}
	return b.String()
}

// TestHandleMatchesRecord pins the handle contract: writes through Handles
// leave a store identical to the same writes through Store.Record —
// rollups, totals, and dropped counts, across ring wrap-around, late
// samples, and negative timestamps — and a handle that never writes
// creates no series.
func TestHandleMatchesRecord(t *testing.T) {
	names := []string{"a", "b", `c{k="v"}`}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const windows = 8
		viaRecord := NewStore(time.Second, windows)
		viaHandle := NewStore(time.Second, windows)
		handles := make([]Handle, len(names))
		for i, name := range names {
			handles[i] = viaHandle.Handle(name)
		}
		_ = viaHandle.Handle("never.written")
		at := time.Duration(0)
		for i := 0; i < 400; i++ {
			// Mostly forward in time, with jumps past the ring's reach
			// (wrap) and samples far behind the newest window (dropped).
			switch r := rng.Intn(10); {
			case r < 6:
				at += time.Duration(rng.Intn(1500)) * time.Millisecond
			case r < 8:
				at += time.Duration(windows+rng.Intn(2*windows)) * time.Second
			}
			ts := at
			if rng.Intn(5) == 0 {
				ts -= time.Duration(rng.Intn(3*windows)) * time.Second
			}
			k := rng.Intn(len(names))
			v := rng.NormFloat64()
			viaRecord.Record(names[k], ts, v)
			handles[k].Record(ts, v)
		}
		want, got := dumpStore(viaRecord), dumpStore(viaHandle)
		if got != want {
			t.Fatalf("seed %d: handle writes differ from Record writes:\n--- Record\n%s\n--- Handle\n%s", seed, want, got)
		}
		if viaHandle.Dropped("a")+viaHandle.Dropped("b")+viaHandle.Dropped(`c{k="v"}`) == 0 {
			t.Fatalf("seed %d: workload dropped nothing; the late-sample path went untested", seed)
		}
		for _, name := range viaHandle.Names() {
			if name == "never.written" {
				t.Fatalf("seed %d: an unused handle created its series", seed)
			}
		}
	}

	// A handle on a nil store, and the zero handle, record nothing.
	var nilStore *Store
	h := nilStore.Handle("x")
	h.Record(time.Second, 1)
	var zero Handle
	zero.Record(time.Second, 1)
}

// foldSample is the per-sample fold SampleSeries replaced, kept as the
// reference it must match: one Store.Record per built-in series, plus one
// per objective that owns a bad series and finds the sample bad.
func foldSample(st *Store, at time.Duration, s Sample, slos []SLO) {
	st.Record(seriesTotal, at, s.E2E.Seconds())
	if s.Class != "ok" {
		st.Record(seriesErrors, at, 1)
	}
	if s.Cold {
		st.Record(seriesCold, at, 1)
	}
	st.Record(seriesCost, at, s.CostUSD)
	for _, def := range slos {
		if def.ownsBadSeries() && def.bad(&s) {
			st.Record(def.badSeries(), at, 1)
		}
	}
}

// TestSampleSeriesMatchesFoldSample checks the precomputed handle set
// against the per-sample reference — foldSample for the unlabeled set, one
// Store.Record per built-in series name for the labeled set: same series,
// same rollups, same exposition — including per-SLO bad series created
// only when a sample is actually bad.
func TestSampleSeriesMatchesFoldSample(t *testing.T) {
	slos := []SLO{
		{Name: "lat", Kind: KindLatency, Threshold: 800 * time.Millisecond},
		{Name: "cold", Kind: KindColdFraction, Budget: 0.2},
		{Name: "pricey", Kind: KindCostPerInvocation, BudgetUSD: 1}, // never violated
		{Name: "avail", Kind: KindAvailability, Budget: 0.02},
		{Name: "spend", Kind: KindCostRate, BudgetUSD: 3},
	}
	arm := Label{Key: "arm", Val: "debloated"}
	viaFold := NewStore(time.Minute, 30)
	viaHandle := NewStore(time.Minute, 30)
	plain := viaHandle.SampleSeries(slos)
	labeled := viaHandle.SampleSeries(nil, arm)
	total := LabeledSeries("req.total", arm)
	errs := LabeledSeries("req.error", arm)
	cold := LabeledSeries("req.cold", arm)
	cost := LabeledSeries("cost.usd", arm)
	rng := rand.New(rand.NewSource(4))
	classes := []string{"ok", "ok", "ok", "shed", "throttle"}
	for i := 0; i < 500; i++ {
		at := time.Duration(rng.Int63n(int64(40 * time.Minute)))
		s := Sample{
			Cold:    rng.Intn(4) == 0,
			Class:   classes[rng.Intn(len(classes))],
			E2E:     time.Duration(rng.Int63n(int64(2 * time.Second))),
			CostUSD: rng.Float64() * 1e-6,
		}
		foldSample(viaFold, at, s, slos)
		viaFold.Record(total, at, s.E2E.Seconds())
		if s.Class != "ok" {
			viaFold.Record(errs, at, 1)
		}
		if s.Cold {
			viaFold.Record(cold, at, 1)
		}
		viaFold.Record(cost, at, s.CostUSD)
		plain.Fold(at, &s)
		labeled.Fold(at, &s)
	}
	if want, got := dumpStore(viaFold), dumpStore(viaHandle); got != want {
		t.Fatalf("SampleSeries differs from foldSample:\n--- foldSample\n%s\n--- SampleSeries\n%s", want, got)
	}
	var want, got strings.Builder
	StoreFamilies(&want, viaFold, nil)
	StoreFamilies(&got, viaHandle, nil)
	if want.String() != got.String() {
		t.Fatalf("expositions differ:\n%s\nvs\n%s", want.String(), got.String())
	}
	if viaHandle.Total("slo.pricey.bad").Count != 0 {
		t.Fatal("never-violated objective recorded a bad event")
	}
	for _, name := range viaHandle.Names() {
		if name == "slo.pricey.bad" {
			t.Fatal("a never-written bad-series handle created its series")
		}
	}
	var nilSet *SampleSeries
	nilSet.Fold(time.Second, &Sample{})
}

// TestRowMatchesRecord checks ledger rows against Ledger.Record: the same
// buckets and bit-identical dollar sums, and no bucket for an unused row.
func TestRowMatchesRecord(t *testing.T) {
	viaRecord, viaRow := NewLedger(), NewLedger()
	rows := map[string]*Row{}
	for _, name := range []string{"f1", "f2", "arm/x"} {
		r := viaRow.Row(name)
		rows[name] = &r
	}
	_ = viaRow.Row("idle")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		name := []string{"f1", "f2", "arm/x"}[rng.Intn(3)]
		billed := time.Duration(1+rng.Intn(2000)) * time.Millisecond
		s := Sample{
			Function:   name,
			Cold:       rng.Intn(3) == 0,
			Class:      "ok",
			BilledInit: billed / 3,
			BilledExec: billed / 2,
			Billed:     billed,
			CostUSD:    rng.Float64() * 1e-5,
		}
		viaRecord.Record(s)
		c := PhaseOf(&s)
		rows[name].Add(&c)
	}
	if want, got := viaRecord.RenderTable(), viaRow.RenderTable(); got != want {
		t.Fatalf("rows differ from Record:\n%s\nvs\n%s", want, got)
	}
	if got := fmt.Sprint(viaRow.Functions()); got != "[arm/x f1 f2]" {
		t.Fatalf("functions = %s: an unused row created a bucket", got)
	}
	var nilLedger *Ledger
	r := nilLedger.Row("x")
	r.Add(&Phase{Invocations: 1})
}
