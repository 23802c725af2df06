package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs/serve"
)

// queries are the five query-smoke queries and the two BenchmarkQuery_
// RangeEval queries the smoke set does not already cover.
var queries = []string{
	"cost.usd / req.total",
	`sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])`,
	`rate(req.total{arm="debloated"}[6h])`,
	"fleet:cost_usd:sum5m",
	"max(fleet:req:rate5m[24h])",
	"rate(cost.usd[1h]) / rate(req.total[1h])",
	"p95(req.total[1h])",
}

// The request mix comes in blocks: each query kind (queries × {instant,
// 5m range, 1h range}) blockRepeat times and blockScrapes /metrics scrapes
// (2%), in an order the seed shuffles. The mix is the same at every seed;
// only the order changes.
const (
	blockRepeat  = 7
	blockScrapes = 3
)

// Request classes, for the layer table.
const (
	classInstant = iota
	classRange
	classScrape
)

// request is one kind of request the client sends.
type request struct {
	name   string // for spans and messages
	path   string
	class  int
	answer func(res *fleet.Result) (string, error) // the body, computed in-process
}

func requestKinds() []request {
	var out []request
	for _, q := range queries {
		q := q
		esc := "/query?q=" + url.QueryEscape(q)
		out = append(out, request{"GET /query instant", esc, classInstant, func(res *fleet.Result) (string, error) {
			s, err := res.QueryEngine().InstantJSON(q, -1)
			return s + "\n", err
		}})
		for _, step := range []time.Duration{5 * time.Minute, time.Hour} {
			step := step
			out = append(out, request{"GET /query range " + step.String(), esc + "&step=" + step.String(), classRange,
				func(res *fleet.Result) (string, error) {
					s, err := res.QueryEngine().RangeJSON(q, 0, -1, step)
					return s + "\n", err
				}})
		}
	}
	return append(out, request{"GET /metrics", "/metrics", classScrape, func(res *fleet.Result) (string, error) {
		return string(res.OpenMetrics()), nil
	}})
}

// queryBench is the chaos-query workload: the fleet-chaos replay served
// through serve.Site on a loopback server, and one client sending the
// request mix over one keep-alive connection, in a closed loop. One op is
// one request.
type queryBench struct {
	f      *fleetBench
	res    *fleet.Result // served
	srv    *httptest.Server
	client *http.Client
	rng    *rand.Rand
	block  []int // the rest of the current block of request kinds
	kinds  []request
	want   []string // per kind: the reference replay's in-process answer
	refErr error    // the reference replay differs from the committed digests
}

func setupQuery(rc runConfig) (instance[int], error) {
	f := newFleetBench(true, rc)
	res, err := fleet.Replay(f.cfg, f.pop)
	if err != nil {
		return nil, err
	}
	site := &serve.Site{
		OpenMetrics: res.OpenMetrics,
		Engine:      res.QueryEngine(),
		AlertLog:    res.AlertLog(),
		Frames:      res.Frames,
	}
	q := &queryBench{
		f:     f,
		res:   res,
		srv:   httptest.NewServer(site.Handler()),
		rng:   rand.New(rand.NewSource(rc.seed)),
		kinds: requestKinds(),
	}
	q.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
	if err := f.useGolden(rc); err != nil {
		q.close()
		return nil, err
	}
	return q, nil
}

// reference answers every kind of request in-process from a one-worker
// replay, which the served multi-worker replay must match byte for byte.
func (q *queryBench) reference() error {
	ref, got, err := q.f.replay(1)
	if err != nil {
		return err
	}
	if q.f.golden != nil && got != *q.f.golden {
		q.refErr = fmt.Errorf("reference replay differs from testdata/golden.json: %+v", got)
	}
	for _, k := range q.kinds {
		body, err := k.answer(ref)
		if err != nil {
			return fmt.Errorf("%s: %w", k.path, err)
		}
		q.want = append(q.want, body)
	}
	return nil
}

// next returns the next request kind.
func (q *queryBench) next() int {
	if len(q.block) == 0 {
		scrape := len(q.kinds) - 1
		for k := 0; k < scrape; k++ {
			for i := 0; i < blockRepeat; i++ {
				q.block = append(q.block, k)
			}
		}
		for i := 0; i < blockScrapes; i++ {
			q.block = append(q.block, scrape)
		}
		q.rng.Shuffle(len(q.block), func(i, j int) { q.block[i], q.block[j] = q.block[j], q.block[i] })
	}
	k := q.block[0]
	q.block = q.block[1:]
	return k
}

func (q *queryBench) op(sp *spans) (int, func() error, error) {
	k := q.next()
	kind := q.kinds[k]
	root := sp.start("request", "op")
	defer sp.end(root)
	var body []byte
	var status int
	_, err := timed(sp, kind.name, func() error {
		resp, err := q.client.Get(q.srv.URL + kind.path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return k, nil, err
	}
	return k, func() error {
		switch {
		case q.refErr != nil:
			return q.refErr
		case status != http.StatusOK:
			return fmt.Errorf("%s: status %d", kind.path, status)
		case string(body) != q.want[k]:
			return fmt.Errorf("%s: body differs from the reference's in-process answer", kind.path)
		}
		return nil
	}, nil
}

// layers answers each timed request again in-process, from the served
// replay, and splits the request time into evaluation and serving.
func (q *queryBench) layers(sp *spans, ops []timedOp[int]) (*layerReport, error) {
	root := sp.start("layers", "layers")
	defer sp.end(root)
	var httpAll, inprocAll []float64
	var sum [3]time.Duration
	var count [3]int
	var inproc [3][]float64
	for _, op := range ops {
		kind := q.kinds[op.rec]
		d, err := timed(sp, "in-process "+kind.name, func() error { _, err := kind.answer(q.res); return err })
		if err != nil {
			return nil, err
		}
		sum[kind.class] += d
		count[kind.class]++
		inproc[kind.class] = append(inproc[kind.class], ms(d))
		inprocAll = append(inprocAll, ms(d))
		httpAll = append(httpAll, ms(op.dur))
	}
	n := float64(len(ops))
	lr := &layerReport{base: mean(httpAll), baseName: "mean HTTP request time", values: map[string]float64{}}
	for class, layer := range []struct{ name, metric string }{
		{"query.Engine.InstantJSON", "query.instant_pct"},
		{"query.Engine.RangeJSON", "query.range_pct"},
		{"fleet.Result.OpenMetrics (/metrics)", "monitor.openmetrics_pct"},
	} {
		per := sum[class] / time.Duration(n)
		lr.add(layer.name, float64(count[class])/n, per, per, layer.metric)
	}
	overhead := time.Duration((mean(httpAll) - mean(inprocAll)) * float64(time.Millisecond))
	lr.derive("HTTP request − in-process answer (serve, net/http, loopback)", overhead, "serve.overhead_pct")
	lr.notes = append(lr.notes,
		fmt.Sprintf("in-process: InstantJSON p50 %.1f µs; RangeJSON p50 %.3f ms, p99 %.3f ms; /metrics render p50 %.3f ms (n=%d)",
			1000*median(inproc[classInstant]), median(inproc[classRange]), quantile(inproc[classRange], 0.99),
			median(inproc[classScrape]), count[classScrape]),
		fmt.Sprintf("HTTP: p50 %.3f ms, p99 %.3f ms; serve overhead p50 (HTTP p50 − in-process p50) %.1f µs",
			median(httpAll), quantile(httpAll, 0.99), 1000*(median(httpAll)-median(inprocAll))))
	return lr, nil
}

func (q *queryBench) close() {
	q.client.CloseIdleConnections()
	q.srv.Close()
}
