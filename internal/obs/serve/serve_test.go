package serve

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
)

func testSite() *Site {
	st := monitor.NewStore(time.Minute, 60)
	for i := 0; i < 10; i++ {
		at := time.Duration(i)*time.Minute + 30*time.Second
		st.Record("req.total", at, float64(i+1))
		st.Record("cost.usd", at, float64(i+1)/8)
	}
	tr := obs.New()
	root := tr.StartChild(nil, "fleet.exemplars", "fleet", 0)
	child := tr.StartChild(root, "fn-00042", "fleet.exemplar", time.Second)
	child.ID = "00000000deadbeef"
	tr.End(child, 3*time.Second)
	tr.End(root, 3*time.Second)
	return &Site{
		OpenMetrics: func() []byte { return []byte("# TYPE x gauge\nx 1\n# EOF\n") },
		Engine:      &query.Engine{Store: st, Latest: 9*time.Minute + 30*time.Second},
		AlertLog:    "[0h00m] FIRING cold-fraction\n",
		Frames:      []string{"frame one\n", "frame two\nsecond line\n"},
		FindSpan:    tr.FindSpan,
	}
}

func get(t *testing.T, s *Site, url string) (int, string, string) {
	t.Helper()
	res, body := do(t, s, "GET", url)
	return res.StatusCode, body, res.Header.Get("Content-Type")
}

func do(t *testing.T, s *Site, method, url string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(method, url, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	code, body, ct := get(t, testSite(), "/metrics")
	if code != 200 || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestQueryEndpointInstant(t *testing.T) {
	code, body, ct := get(t, testSite(), "/query?q=cost.usd+%2F+req.total")
	if code != 200 {
		t.Fatalf("code=%d body=%q", code, body)
	}
	want := `{"query":"cost.usd / req.total","type":"instant","at_us":600000000,"value":0.125}` + "\n"
	if body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestQueryEndpointRange(t *testing.T) {
	code, body, _ := get(t, testSite(), "/query?q=count(req.total%5B1m%5D)&step=5m")
	if code != 200 || !strings.Contains(body, `"type":"range"`) {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if !strings.Contains(body, `"step_us":300000000`) {
		t.Fatalf("body = %q", body)
	}
}

func TestQueryEndpointAt(t *testing.T) {
	_, body, _ := get(t, testSite(), "/query?q=req.total&at=3m")
	if !strings.Contains(body, `"value":6`) { // 1+2+3 before the 3m boundary
		t.Fatalf("body = %q", body)
	}
}

// An at= between window boundaries evaluates at, and reports, the next
// boundary: the samples at 30 s, 90 s and 150 s all lie before 3 m.
func TestQueryEndpointAtSnaps(t *testing.T) {
	_, body, _ := get(t, testSite(), "/query?q=req.total&at=150s")
	if want := `{"query":"req.total","type":"instant","at_us":180000000,"value":6}` + "\n"; body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	for _, url := range []string{
		"/query",
		"/query?q=frob(x%5B1m%5D)",
		"/query?q=req.total&step=bogus",
		"/query?q=req.total&at=bogus",
	} {
		if code, body, _ := get(t, testSite(), url); code != 400 {
			t.Errorf("%s: code=%d body=%q, want 400", url, code, body)
		}
	}
}

// boundedEcho checks that a bad parameter's error quotes a bounded excerpt
// of it: a 200 000-byte step, at or span id used to come back whole, in a
// 200 000-byte body.
func boundedEcho(t *testing.T, url string, code int, msg string) {
	t.Helper()
	got, body, _ := get(t, testSite(), url)
	want := msg + `"` + strings.Repeat("9", 32) + `"...`
	if got != code || len(body) > 256 || !strings.HasPrefix(body, want) {
		t.Fatalf("code=%d, %d-byte body %.120q, want %d and a body under 256 bytes starting %q", got, len(body), body, code, want)
	}
}

func TestQueryEndpointBoundsStepEcho(t *testing.T) {
	boundedEcho(t, "/query?q=req.total&step="+strings.Repeat("9", 200_000), http.StatusBadRequest, "bad step: ")
}

func TestQueryEndpointBoundsAtEcho(t *testing.T) {
	boundedEcho(t, "/query?q=req.total&at="+strings.Repeat("9", 200_000), http.StatusBadRequest, "bad at: ")
}

func TestSpanEndpointBoundsIDEcho(t *testing.T) {
	boundedEcho(t, "/span?id="+strings.Repeat("9", 200_000), http.StatusNotFound, "no span with id ")
}

func TestAlertsEndpoint(t *testing.T) {
	code, body, _ := get(t, testSite(), "/alerts")
	if code != 200 || !strings.Contains(body, "FIRING cold-fraction") {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestDashboardSSE(t *testing.T) {
	code, body, ct := get(t, testSite(), "/dashboard")
	if code != 200 || ct != "text/event-stream" {
		t.Fatalf("code=%d ct=%q", code, ct)
	}
	want := "id: 0\nevent: frame\ndata: frame one\n\n" +
		"id: 1\nevent: frame\ndata: frame two\ndata: second line\n\n" +
		"event: done\ndata: 2 frames\n\n"
	if body != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
}

func TestSpanEndpoint(t *testing.T) {
	code, body, _ := get(t, testSite(), "/span?id=00000000deadbeef")
	if code != 200 || !strings.Contains(body, "fn-00042") {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, testSite(), "/span?id=ffff"); code != 404 {
		t.Fatalf("unknown span code=%d, want 404", code)
	}
	if code, _, _ := get(t, testSite(), "/span"); code != 400 {
		t.Fatalf("missing id code=%d, want 400", code)
	}
}

func TestEmptySiteDegrades(t *testing.T) {
	s := &Site{}
	if code, body, _ := get(t, s, "/metrics"); code != 200 || body != "# EOF\n" {
		t.Fatalf("empty metrics code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, s, "/span?id=x"); code != 404 {
		t.Fatalf("empty span code=%d", code)
	}
	if code, body, _ := get(t, s, "/query?q=req.total"); code != 200 || !strings.Contains(body, `"value":0`) {
		t.Fatalf("empty query code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, s, "/nope"); code != 404 {
		t.Fatalf("unknown path code=%d", code)
	}
	if code, body, _ := get(t, s, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index code=%d body=%q", code, body)
	}
}

// TestWriteMethodsRejected: the server is read-only, so a request with any
// other method gets 405 naming the allowed ones, on every route.
func TestWriteMethodsRejected(t *testing.T) {
	for _, url := range []string{"/metrics", "/query?q=req.total", "/alerts", "/dashboard", "/span?id=00000000deadbeef", "/"} {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			res, body := do(t, testSite(), method, url)
			if res.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: code=%d body=%q, want 405", method, url, res.StatusCode, body)
			}
			if allow := res.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow = %q, want \"GET, HEAD\"", method, url, allow)
			}
		}
	}
	if res, _ := do(t, testSite(), "POST", "/nope"); res.StatusCode != http.StatusNotFound {
		t.Errorf("POST to an unknown path: code=%d, want 404", res.StatusCode)
	}
}

// TestHeadServed: HEAD still reaches every GET route, with GET's headers.
func TestHeadServed(t *testing.T) {
	for url, ct := range map[string]string{
		"/metrics":           "application/openmetrics-text; version=1.0.0; charset=utf-8",
		"/query?q=req.total": "application/json",
		"/alerts":            "text/plain; charset=utf-8",
		"/dashboard":         "text/event-stream",
		"/":                  "text/plain; charset=utf-8",
	} {
		res, _ := do(t, testSite(), "HEAD", url)
		if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != ct {
			t.Errorf("HEAD %s: code=%d content type %q, want 200 %q", url, res.StatusCode, res.Header.Get("Content-Type"), ct)
		}
	}
}

// TestServerBoundsHeaderReads: the listening server does not wait forever
// for a client's request headers.
func TestServerBoundsHeaderReads(t *testing.T) {
	if got := testSite().server(":0").ReadHeaderTimeout; got <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", got)
	}
}

// A short query whose evaluation would read hundreds of millions of store
// windows gets a 400 naming the bound, not seconds of CPU.
func TestQueryEndpointBoundsWork(t *testing.T) {
	st := monitor.NewStore(time.Minute, 24*60+1)
	var at time.Duration
	for at = 30 * time.Second; at < 24*time.Hour; at += time.Minute {
		st.Record("req.total", at, 1)
	}
	s := &Site{Engine: &query.Engine{Store: st, Latest: at - time.Minute}}
	q := strings.TrimSuffix(strings.Repeat("sum(req.total[24h]) + ", 100), " + ")
	code, body, _ := get(t, s, "/query?step=1m&q="+url.QueryEscape(q))
	if code != 400 || !strings.Contains(body, "store windows") {
		t.Fatalf("code=%d body=%q, want 400 naming the read bound", code, body)
	}
	if code, body, _ := get(t, s, "/query?step=5m&q="+url.QueryEscape("sum(req.total[24h])")); code != 200 {
		t.Fatalf("bounded query: code=%d body=%q", code, body)
	}
}

// A query that nests past the parser's bounds gets a 400 naming the bound.
// At 900 001 bytes the negations fit under net/http's header limit; before
// the bound they parsed, and grew the handler's stack by 128 MB. One
// parenthesis past its bound used to pass, and grew the stack by 16 MB.
func TestQueryEndpointBoundsNesting(t *testing.T) {
	srv := httptest.NewServer(testSite().Handler())
	defer srv.Close()
	n := 16384 // one past the parser's bound on open parentheses
	for q, bound := range map[string]string{
		strings.Repeat("-", 900000) + "1":                     "nests deeper than 16384 levels",
		strings.Repeat("(", n) + "1" + strings.Repeat(")", n): "parentheses nest deeper than 16383 levels",
	} {
		res, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), bound) {
			t.Fatalf("%.10q…: code=%d body=%.100q, want 400 naming %q", q, res.StatusCode, body, bound)
		}
	}
}

// A parse error quotes a bounded excerpt of the query, so a long query's
// 400 body stays short. It used to quote the whole query: 200 000 bytes of
// 0x01 got an 800 043-byte body.
func TestQueryEndpointBoundsErrors(t *testing.T) {
	q := strings.Repeat("\x01", 200_000)
	code, body, _ := get(t, testSite(), "/query?q="+url.QueryEscape(q))
	if code != http.StatusBadRequest || len(body) > 256 || !strings.Contains(body, "of a 200000-byte query") {
		t.Fatalf("code=%d, %d-byte body %.120q, want a 400 under 256 bytes naming the query's length", code, len(body), body)
	}
}

// start serves srv on a loopback listener until ctx is done, as
// ListenAndServe does, and returns the base URL and serve's result.
func start(t *testing.T, ctx context.Context, srv *http.Server) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln) }()
	return "http://" + ln.Addr().String(), done
}

// returned waits for serve's result, which must be nil and come well
// before the shutdown grace runs out.
func returned(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(shutdownGrace / 2):
		t.Fatal("serve did not return promptly after its context was cancelled")
	}
}

// Cancelling the context shuts the server down promptly, though a
// dashboard client waits an hour for its next frame: the stream's context
// derives from the server's, so it ends.
func TestServeShutdownEndsStream(t *testing.T) {
	s := testSite()
	s.FrameDelay = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := start(t, ctx, s.server(""))
	res, err := http.Get(base + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	br := bufio.NewReader(res.Body)
	for { // the first frame; the handler then waits for the second
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\n" {
			break
		}
	}
	cancel()
	returned(t, done)
	if rest, _ := io.ReadAll(br); len(rest) != 0 {
		t.Fatalf("stream went on after shutdown: %q", rest)
	}
}

// A query in flight when the context is cancelled still completes.
func TestServeShutdownFinishesQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := testSite().server("")
	inner := srv.Handler
	arrived := make(chan struct{})
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-r.Context().Done() // the server is shutting down
		inner.ServeHTTP(w, r)
	})
	base, done := start(t, ctx, srv)
	type reply struct {
		code int
		body string
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		res, err := http.Get(base + "/query?q=cost.usd+%2F+req.total")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		replies <- reply{res.StatusCode, string(body), err}
	}()
	<-arrived
	cancel()
	r := <-replies
	want := `{"query":"cost.usd / req.total","type":"instant","at_us":600000000,"value":0.125}` + "\n"
	if r.err != nil || r.code != 200 || r.body != want {
		t.Fatalf("in-flight query: code=%d body=%q err=%v, want 200 %q", r.code, r.body, r.err, want)
	}
	returned(t, done)
}

// The listening server bounds how long a response may take to write, and
// the dashboard stream, which outlasts that deadline by design, lifts it.
func TestServerBoundsWrites(t *testing.T) {
	if got := testSite().server(":0").WriteTimeout; got <= 0 {
		t.Fatalf("WriteTimeout = %v, want a positive bound", got)
	}
	s := testSite()
	s.Frames = []string{"a", "b", "c", "d", "e"}
	s.FrameDelay = 40 * time.Millisecond
	srv := s.server("")
	srv.WriteTimeout = 50 * time.Millisecond // the stream takes 160 ms
	ctx, cancel := context.WithCancel(context.Background())
	base, done := start(t, ctx, srv)
	res, err := http.Get(base + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || !strings.HasSuffix(string(body), "event: done\ndata: 5 frames\n\n") {
		t.Fatalf("stream past the write deadline: err=%v body=%q", err, body)
	}
	cancel()
	returned(t, done)
}
