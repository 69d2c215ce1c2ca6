// Command quakeserve runs the long-running frame-serving service over a
// dataset produced by quakesim: an HTTP server (internal/serve) that
// renders frame requests through pooled per-session pipeline instances,
// caches rendered frames in a byte-bounded LRU, sheds load past its
// admission bounds, and drains gracefully on SIGINT/SIGTERM. See
// docs/serve.md for the endpoints and tuning guidance.
//
// Usage:
//
//	quakeserve -data dataset -listen :8080
//	curl 'localhost:8080/frame?step=3&view=orbit&az=30&el=55&tf=hot&format=png' > f.png
//	curl 'localhost:8080/frames?lo=0&hi=8' > frames.qsf
//	curl localhost:8080/statsz
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quakeserve: ")

	data := flag.String("data", "dataset", "dataset directory (from quakesim)")
	listen := flag.String("listen", ":8080", "HTTP listen address")
	cacheMB := flag.Int64("cache-mb", 64, "frame cache bound in MiB (<= 0 disables caching)")
	sessions := flag.Int("sessions", 4, "idle render sessions kept warm (any session renders any view; more than -inflight is never used)")
	inflight := flag.Int("inflight", 2, "concurrent renders admitted")
	queue := flag.Int("queue", 8, "renders queued beyond the in-flight bound (-1: none)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "max time a queued render waits before 429")
	window := flag.Int("window", 32, "max steps per request range (and per render window)")
	groups := flag.Int("groups", 1, "input processor groups per session")
	ips := flag.Int("ips", 1, "input processors per group per session")
	renderers := flag.Int("renderers", 1, "rendering processors per session")
	outputs := flag.Int("outputs", 1, "output processors per session")
	workers := flag.Int("workers", 0, "per-rank render worker goroutines (0 = split NumCPU)")
	lighting := flag.Bool("lighting", false, "gradient Phong lighting")
	enhance := flag.Bool("enhance", false, "temporal-domain enhancement")
	tolerate := flag.Bool("tolerate", false, "serve degraded frames on read faults instead of failing requests")
	vmax := flag.Float64("vmax", 0, "fixed quantization range (0 = scan the dataset at startup)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight renders on shutdown")
	flag.Parse()

	store, err := pfs.NewDirStore(*data)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := serve.NewEngine(retryStore(store, *tolerate), serve.EngineConfig{
		Layout:      core.Layout{Groups: *groups, IPsPerGroup: *ips, Renderers: *renderers, Outputs: *outputs},
		CacheBytes:  *cacheMB << 20,
		MaxSessions: *sessions,
		MaxWindow:   *window,
		Enhancement: *enhance,
		Lighting:    *lighting,
		Workers:     *workers,
		FixedVMax:   float32(*vmax),
		Tolerate:    *tolerate,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerConfig{
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		QueueTimeout: *queueTimeout,
	})
	log.Printf("serving %d dataset steps on %s (vmax %g, cache %d MiB, %d in-flight)",
		eng.Steps(), *listen, eng.VMax(), *cacheMB, *inflight)

	httpSrv := &http.Server{Addr: *listen, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%s: draining", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("bye")
}

// retryStore is where -tolerate reaches storage: with it, reads go through
// the retry layer, which heals transient faults below MPI-IO so that only
// a fault worth degrading over reaches the fetch path (docs/faults.md).
// Without the flag the store is handed on bare and a transient fault fails
// the request like any other.
func retryStore(st pfs.Store, tolerate bool) pfs.Store {
	if !tolerate {
		return st
	}
	return pfs.NewRetryStore(st, pfs.RetryConfig{BaseDelay: time.Millisecond})
}
