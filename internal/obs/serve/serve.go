// Package serve exposes a finished replay (or any compatible telemetry
// producer) over HTTP: the OpenMetrics exposition, the mql query engine,
// the alert log, a server-sent-events dashboard stream, and span lookup
// by exemplar ID. The server is read-only — it renders artifacts that are
// already deterministic, so responses are byte-stable for a fixed replay
// and the server adds no observable state of its own.
//
// The Site struct decouples the server from the fleet package (fleet
// imports query; a server type inside fleet or query would bend the
// import graph): callers hand over closures and values, typically wired
// from a fleet.Result.
package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/query"
)

// Site is the bundle of artifacts the server exposes. Any field may be
// zero: the corresponding endpoint degrades (empty exposition, 404 span
// lookups) instead of panicking.
type Site struct {
	// OpenMetrics returns the exposition body (already "# EOF" terminated).
	OpenMetrics func() []byte
	// Engine answers /query. A nil engine evaluates everything to zero.
	Engine *query.Engine
	// AlertLog is the rendered alert transition log for /alerts.
	AlertLog string
	// Frames are the dashboard frames streamed by /dashboard.
	Frames []string
	// FindSpan resolves a span ID for /span (nil disables lookup).
	FindSpan func(id string) *obs.Span
	// FrameDelay paces the SSE dashboard stream (0 streams immediately,
	// which is what tests want).
	FrameDelay time.Duration
}

// Handler builds the site's HTTP mux. Every route is read-only: GET (and
// HEAD) are served, any other method gets 405 with an Allow header, and
// unknown paths get 404.
//
//	GET /metrics            OpenMetrics exposition
//	GET /query?q=<mql>      instant query, JSON
//	GET /query?q=&step=<d>  range query over the whole replay, JSON
//	GET /alerts             alert transition log, plain text
//	GET /dashboard          dashboard frames as an SSE stream
//	GET /span?id=<hex>      span subtree behind an exemplar, plain text
//	GET /                   tiny plain-text index
func (s *Site) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /query", s.query)
	mux.HandleFunc("GET /alerts", s.alerts)
	mux.HandleFunc("GET /dashboard", s.dashboard)
	mux.HandleFunc("GET /span", s.span)
	mux.HandleFunc("GET /{$}", s.index)
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers; without it a client that never finishes them holds a goroutine
// forever.
const readHeaderTimeout = 10 * time.Second

// ListenAndServe serves the site on addr until the server errors. The
// caller owns process lifetime; there is no graceful-shutdown dance
// because the server is a read-only viewer over an immutable result.
func (s *Site) ListenAndServe(addr string) error {
	return s.server(addr).ListenAndServe()
}

func (s *Site) server(addr string) *http.Server {
	return &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
}

func (s *Site) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("lambdatrim observability server\n" +
		"  /metrics            OpenMetrics exposition\n" +
		"  /query?q=<mql>      instant query (add &step=1m for a range)\n" +
		"  /alerts             alert transition log\n" +
		"  /dashboard          SSE dashboard stream\n" +
		"  /span?id=<hex>      exemplar span subtree\n"))
}

func (s *Site) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type",
		"application/openmetrics-text; version=1.0.0; charset=utf-8")
	if s.OpenMetrics != nil {
		w.Write(s.OpenMetrics())
		return
	}
	w.Write([]byte("# EOF\n"))
}

func (s *Site) query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	var out string
	var err error
	if stepStr := r.URL.Query().Get("step"); stepStr != "" {
		var step time.Duration
		step, err = time.ParseDuration(stepStr)
		if err != nil || step <= 0 {
			http.Error(w, "bad step: "+stepStr, http.StatusBadRequest)
			return
		}
		out, err = s.Engine.RangeJSON(q, 0, -1, step)
	} else {
		at := time.Duration(-1)
		if atStr := r.URL.Query().Get("at"); atStr != "" {
			at, err = time.ParseDuration(atStr)
			if err != nil {
				http.Error(w, "bad at: "+atStr, http.StatusBadRequest)
				return
			}
		}
		out, err = s.Engine.InstantJSON(q, at)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(out + "\n"))
}

func (s *Site) alerts(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(s.AlertLog))
}

// dashboard streams the replay's dashboard frames as server-sent events,
// one frame per event, then a terminal "done" event. SSE data lines must
// not contain raw newlines, so multi-line frames become consecutive
// data: lines (the SSE way to send one multi-line payload).
func (s *Site) dashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	for i, frame := range s.Frames {
		w.Write([]byte("id: " + strconv.Itoa(i) + "\nevent: frame\n"))
		for _, line := range strings.Split(strings.TrimRight(frame, "\n"), "\n") {
			w.Write([]byte("data: " + line + "\n"))
		}
		w.Write([]byte("\n"))
		if fl != nil {
			fl.Flush()
		}
		if s.FrameDelay > 0 && i < len(s.Frames)-1 {
			select {
			case <-time.After(s.FrameDelay):
			case <-r.Context().Done():
				return
			}
		}
	}
	w.Write([]byte("event: done\ndata: " + strconv.Itoa(len(s.Frames)) + " frames\n\n"))
}

func (s *Site) span(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id parameter", http.StatusBadRequest)
		return
	}
	if s.FindSpan == nil {
		http.Error(w, "span lookup not available", http.StatusNotFound)
		return
	}
	sp := s.FindSpan(id)
	if sp == nil {
		http.Error(w, "no span with id "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(sp.Subtree()))
}
