package core

// Degraded-mode operation (PR 6, docs/faults.md): the Workload fetch hooks
// wrap the read bodies (real.go) with the fault policy. Retryable errors —
// transient faults and corrupt records, classified by the pfs sentinels —
// are re-read within a per-step budget; a step that exhausts its budget is
// served from the previous step's data instead of aborting the run. The
// fallback is free because the rank's quantized values (ipScratch.q, one
// per node its part reads) keep their layout for the whole run and are
// rewritten only by the last link of a successful decode chain: a step whose
// read failed still finds the previous step's values there, so "degrade" is
// just marking the frame and shipping what the buffer holds. Degraded steps
// mark their frame, and Assemble folds the flag into Result.DegradedFrames;
// the happy path adds only branch checks and stays allocation-free.

import (
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// attachResult gives the workload the run's Result so degraded-mode
// recoveries can be accounted; NewPipeline calls it via optional-interface
// assertion.
func (w *RealWorkload) attachResult(res *Result) { w.res = res }

// tolerateRankLoss reports whether the fault policy degrades on a lost
// peer rank instead of aborting; NewPipeline reads it via
// optional-interface assertion to arm the peer-loss recv fallback.
func (w *RealWorkload) tolerateRankLoss() bool { return w.opts.Faults.Tolerate }

// account folds one recovery episode into the run's Result (if attached).
func (w *RealWorkload) account(faults, retries int, stale bool) {
	if w.res != nil {
		w.res.addFetchFaults(faults, retries, stale)
	}
}

// markDegraded records that some input rank served stale or dropped data
// for timestep t.
func (w *RealWorkload) markDegraded(t int) {
	w.degradedMu.Lock()
	if w.degraded == nil {
		w.degraded = make(map[int]bool)
	}
	w.degraded[t] = true
	w.degradedMu.Unlock()
}

// FrameDegraded reports whether timestep t's frame was built from degraded
// input: a stale-data fallback share or a dropped LIC underlay. Valid once
// the frame exists (Frame(t) != nil); consumers use it to tag or skip
// frames that do not reflect step t's true data.
func (w *RealWorkload) FrameDegraded(t int) bool {
	w.degradedMu.Lock()
	defer w.degradedMu.Unlock()
	return w.degraded[t]
}

// Fetch implements Workload: fetchStep under the fault policy. The fetched
// step it returns is the rank's own scratch, which PayloadFor gathers from.
// Retryable failures re-read within the per-step budget; past it the step
// degrades to the previous step's data (stale fallback: the scratch still
// holds it, zeros before this rank's first successful step, and PayloadFor
// ships stale values exactly as it would fresh ones) and the frame is
// marked. Collective reads never re-run fetchStep — a completed collective
// round cannot be re-entered by one rank (mpiio.ReadAllInto) — so a surfaced
// collective failure degrades directly; transients there are healed below
// MPI-IO by pfs.RetryStore.
func (w *RealWorkload) Fetch(c *mpi.Comm, t, part, m int) (any, error) {
	scr := w.ipScr[c.Rank()]
	scr.part = part
	err := w.fetchStep(c, t, part, scr)
	if err == nil || !w.opts.Faults.Tolerate {
		return scr, err
	}
	budget := w.opts.Faults.stepRetries()
	if w.opts.ReadStrategy == ReadCollective {
		budget = 0
	}
	err = w.reread(err, budget, true, func() error {
		return w.fetchStep(c, t, part, scr)
	})
	if err != nil {
		w.markDegraded(t)
	}
	return scr, nil
}

// reread is the budgeted re-read every recovery site runs: while err is
// retryable and fewer than budget retries are spent, run again. It
// accounts the episode — as healed when an attempt succeeds (nil is
// returned), with the caller's stale flag when the budget runs out or err
// is not worth retrying (the last error is returned).
func (w *RealWorkload) reread(err error, budget int, stale bool, again func() error) error {
	faults, retries := 1, 0
	for retries < budget && pfs.Retryable(err) {
		retries++
		if err = again(); err == nil {
			w.account(faults, retries, false)
			return nil
		}
		faults++
	}
	w.account(faults, retries, stale)
	return err
}

// retryReopen spends the step budget on a failed pre-collective Reopen —
// rank-local and therefore safe to retry even in collective mode (the
// round's collective has not started). It returns nil once an attempt
// succeeds, or the last error.
func (w *RealWorkload) retryReopen(f *mpiio.File, c *mpi.Comm, t int, err error) error {
	if !w.opts.Faults.Tolerate {
		return err
	}
	return w.reread(err, w.opts.Faults.stepRetries(), false, func() error {
		return f.Reopen(c, w.store, w.stepName(t))
	})
}

// LICPayload implements Workload: licStep under the fault policy. A failed
// LIC build retries within the step budget, then degrades by shipping a nil
// underlay (Assemble renders the frame without it) and marking the frame.
func (w *RealWorkload) LICPayload(c *mpi.Comm, t int, prep any) (int64, any, error) {
	bytes, data, err := w.licStep(c, t)
	if err == nil || !w.opts.Faults.Tolerate {
		return bytes, data, err
	}
	err = w.reread(err, w.opts.Faults.stepRetries(), false, func() (err error) {
		bytes, data, err = w.licStep(c, t)
		return err
	})
	if err == nil {
		return bytes, data, nil
	}
	w.markDegraded(t)
	return 1, nil, nil
}
