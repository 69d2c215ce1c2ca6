package mpi

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is the loopback harness: a whole network-transport job hosted
// in one process, one goroutine per rank, over real kernel sockets.

// RunNet executes body on n ranks connected over loopback TCP — one
// in-process goroutine per rank, each with its own transport state,
// exchanging serialized frames through real kernel sockets exactly as
// separate processes would — and blocks until all ranks return. It
// returns the elapsed wall time and the first rank failure (bootstrap
// error or recovered panic), tearing the remaining ranks down on error.
// Default tuning; use RunNetErrs to tune liveness or inject faults.
//
//repro:allow deadexport: bench
func RunNet(n int, body func(c *Comm)) (float64, error) {
	rep, err := runNet(n, NetTuning{}, true, body)
	if err != nil {
		return rep.Seconds, err
	}
	for _, rerr := range rep.Errs {
		if rerr != nil {
			return rep.Seconds, rerr
		}
	}
	return rep.Seconds, nil
}

// NetReport is RunNetErrs's per-rank outcome.
type NetReport struct {
	// Errs[r] is rank r's recovered failure (join error, panic from
	// body, ErrRankKilled, or a DroppedMessagesError from Close); nil
	// for a clean rank.
	Errs []error
	// Stats[r] is rank r's final transport counters.
	Stats []NetStats
	// Seconds is the elapsed wall time.
	Seconds float64
}

// RunNetErrs is RunNet with tuning and per-rank outcomes: every rank
// runs under tun (heartbeats, reconnect budget, fault injection), and
// one rank's failure does not tear the others down — peers of a dead
// rank heal or degrade per the self-healing rules, which is exactly
// what the chaos suites assert. The error return is reserved for
// harness-level failures (listener setup); per-rank failures are in the
// report.
//
//repro:allow deadexport: bench
func RunNetErrs(n int, tun NetTuning, body func(c *Comm)) (NetReport, error) {
	return runNet(n, tun, false, body)
}

func runNet(n int, tun NetTuning, abortive bool, body func(c *Comm)) (NetReport, error) {
	if n <= 0 {
		panic("mpi: RunNet needs at least one rank")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return NetReport{}, fmt.Errorf("mpi: RunNet coordinator listen: %w", err)
	}
	start := time.Now()
	coord := ln.Addr().String()
	rep := NetReport{Errs: make([]error, n), Stats: make([]NetStats, n)}
	var (
		mu       sync.Mutex
		firstErr error
		worlds   = make([]*NetWorld, n)
	)
	abort := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		ws := append([]*NetWorld(nil), worlds...)
		mu.Unlock()
		ln.Close()
		for _, nw := range ws {
			if nw != nil {
				nw.w.fail(err)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("%v", rec)
					}
					mu.Lock()
					rep.Errs[rank] = err
					mu.Unlock()
					if abortive {
						abort(fmt.Errorf("mpi: RunNet rank %d: %w", rank, err))
					}
				}
			}()
			cfg := NetConfig{Rank: rank, Size: n, Coordinator: coord,
				DialTimeout: 30 * time.Second, Tuning: tun}
			if rank == 0 {
				cfg.listener = ln
			}
			nw, err := Join(cfg)
			if err != nil {
				// A failed bootstrap strands every rank; always abort.
				abort(fmt.Errorf("mpi: RunNet rank %d join: %w", rank, err))
				panic(err)
			}
			mu.Lock()
			worlds[rank] = nw
			aborted := firstErr != nil
			mu.Unlock()
			if aborted {
				nw.w.fail(firstErr)
				return
			}
			body(nw.Comm())
		}(r)
	}
	wg.Wait()
	for r, nw := range worlds {
		if nw == nil {
			continue
		}
		if err := nw.Close(); err != nil && rep.Errs[r] == nil {
			rep.Errs[r] = err
		}
		rep.Stats[r] = nw.Stats()
	}
	ln.Close()
	mu.Lock()
	defer mu.Unlock()
	rep.Seconds = time.Since(start).Seconds()
	if abortive && firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}
