package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one Prometheus label pair. Samples carry labels as an
// ordered slice so the exposition output is deterministic.
type Label struct {
	Key, Value string
}

// Sample is one metric observation. Names ending in "_total" are
// exposed as counters, everything else as gauges. Help, when set,
// becomes the family's HELP line.
type Sample struct {
	Name   string
	Help   string
	Labels []Label
	Value  float64
}

// DebugServer is the process's observability HTTP endpoint:
//
//	/healthz            liveness probe ("ok")
//	/metrics            Prometheus text exposition of every
//	                    registered sample source
//	/debug/vars         expvar JSON
//	/debug/pprof/...    the standard pprof handlers
//
// Sources are functions returning the current samples; they are
// called per scrape, so a source backed by live atomics serves
// continuously-updated values with no push pipeline.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server

	mu      sync.Mutex
	sources []func() []Sample
}

// StartDebugServer listens on addr (":0" picks a free port — read it
// back with Addr) and serves the debug endpoints on its own mux, so
// mounting pprof here never touches http.DefaultServeMux.
func StartDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	s := &DebugServer{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// AddSource registers a sample source; every /metrics scrape calls it.
func (s *DebugServer) AddSource(fn func() []Sample) {
	s.mu.Lock()
	s.sources = append(s.sources, fn)
	s.mu.Unlock()
}

// Close stops the listener and in-flight handlers.
func (s *DebugServer) Close() error {
	return s.srv.Close()
}

func (s *DebugServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "gthinker debug server")
	fmt.Fprintln(w, "  /healthz")
	fmt.Fprintln(w, "  /metrics")
	fmt.Fprintln(w, "  /debug/vars")
	fmt.Fprintln(w, "  /debug/pprof/")
}

func (s *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sources := append([]func() []Sample(nil), s.sources...)
	s.mu.Unlock()
	var samples []Sample
	for _, src := range sources {
		samples = append(samples, src()...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteExposition(w, samples) // a failed write means the scraper went away
}

// WriteExposition renders samples in the Prometheus text format — the
// one writer behind every /metrics in this repository. Output is
// stable: samples group by name (one HELP and one TYPE line per
// family) and keep their given order within a family; the slice is
// sorted in place.
func WriteExposition(w io.Writer, samples []Sample) error {
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].Name < samples[b].Name })
	var b strings.Builder
	lastName := ""
	for _, sm := range samples {
		if sm.Name != lastName {
			if sm.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", sm.Name, sm.Help)
			}
			typ := "gauge"
			if strings.HasSuffix(sm.Name, "_total") {
				typ = "counter"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", sm.Name, typ)
			lastName = sm.Name
		}
		b.WriteString(sm.Name)
		if len(sm.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range sm.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Key)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l.Value))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatValue(sm.Value))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
