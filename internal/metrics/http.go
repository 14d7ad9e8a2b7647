package metrics

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Server exposes a registry over HTTP for live scraping:
//
//	/metrics      Prometheus text exposition
//	/debug/vars   expvar JSON (the registry is published as "drp_metrics")
//	/debug/pprof  the standard Go profiling endpoints
//
// It binds its own mux, so importing this package never mutates
// http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts a metrics server on addr ("127.0.0.1:0" picks an ephemeral
// port; read it back with Addr).
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	reg.publishExpvar("drp_metrics")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// EnableRuntimeProfiles turns on the runtime's contention profilers so the
// /debug/pprof/block and /debug/pprof/mutex endpoints carry data.
// blockRate is the blocking-event sampling rate in nanoseconds (1 samples
// every event; see runtime.SetBlockProfileRate) and mutexFraction samples
// 1/n of mutex contention events (see runtime.SetMutexProfileFraction).
// Zero leaves the corresponding profiler untouched; both default to off
// because sampling taxes every contended lock in the process.
func EnableRuntimeProfiles(blockRate, mutexFraction int) {
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
