package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// Tracing is done from outside the program under test: tracedWorkload
// decorates the core.Workload hooks a pipeline calls and tracedStore
// decorates the pfs.Store it reads through. Each records a span per call
// into memory; nothing is written until the run is over. The untraced run
// installs neither, so the end-to-end numbers carry no tracing cost, and
// trace.overhead_ratio reports what the decorators cost the traced run.

// stage names a span's layer boundary.
type stage uint8

const (
	stFetch stage = iota
	stPayload
	stLIC
	stRender
	stComposite
	stAssemble
	stRead
	stStat
	stReqHit
	stReqMiss
	stReqNewView
	numStages
)

var stageName = [numStages]string{"core.fetch", "core.payload", "core.lic", "core.render",
	"core.composite", "core.assemble", "pfs.read", "pfs.stat",
	"serve.request.hit", "serve.request.miss", "serve.request.newview"}

// span is one timed call. Spans of one frame share (pass, step). rank is
// the world rank (or viewer) whose lane the span belongs to, -1 when the
// caller's rank is not visible from outside; a store span's parent is the
// stage span on the same rank's lane that contains it in time.
type span struct {
	pass, step int32
	rank       int32
	stage      stage
	start, dur int64 // ns since the recorder's epoch
	bytes      int64 // store spans: bytes read
}

// lane is the span buffer of one goroutine: a rank body, one payload-build
// worker slot, or one viewer. Only that goroutine appends to it, so the
// hot path takes no lock.
type lane struct{ spans []span }

// recorder holds a traced run's spans.
type recorder struct {
	epoch time.Time
	// pass is the measured pass (batch) or phase (serve) in progress, -1
	// between them: spans recorded outside a pass (construction, warm-up)
	// are kept out of the per-frame numbers.
	pass atomic.Int32

	ranks   []lane   // stage spans by world rank (batch) or viewer (serve)
	payload [][]lane // PayloadFor runs concurrently: [input rank][renderer]

	mu    sync.Mutex
	store []span // tracedStore's spans; callers may be concurrent sessions
}

func newRecorder(ranks, inputs, renderers int) *recorder {
	r := &recorder{epoch: time.Now(), ranks: make([]lane, ranks), payload: make([][]lane, inputs)}
	r.pass.Store(-1)
	// Sized for a traced run of a few hundred frames so that appends on
	// the hot path almost never grow the buffer.
	for i := range r.ranks {
		r.ranks[i].spans = make([]span, 0, 4096)
	}
	for i := range r.payload {
		r.payload[i] = make([]lane, renderers)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (l *lane) add(r *recorder, rank, step int, st stage, t0 int64) {
	l.spans = append(l.spans, span{pass: r.pass.Load(), step: int32(step), rank: int32(rank),
		stage: st, start: t0, dur: r.now() - t0})
}

// tracedWorkload forwards every core.Workload hook to the real workload
// and records a span around it. It cannot forward RealWorkload's
// unexported fault-accounting hooks, which is harmless here: every
// workload runs with the zero FaultPolicy.
type tracedWorkload struct {
	inner *core.RealWorkload
	rec   *recorder
}

func (t *tracedWorkload) Steps() int    { return t.inner.Steps() }
func (t *tracedWorkload) WantLIC() bool { return t.inner.WantLIC() }

func (t *tracedWorkload) Fetch(c *mpi.Comm, step, part, m int) (any, error) {
	t0 := t.rec.now()
	v, err := t.inner.Fetch(c, step, part, m)
	t.rec.ranks[c.Rank()].add(t.rec, c.Rank(), step, stFetch, t0)
	return v, err
}

func (t *tracedWorkload) Preprocess(c *mpi.Comm, step, part, m int, fetched any) (any, error) {
	return t.inner.Preprocess(c, step, part, m, fetched) // a pass-through in RealWorkload: no span
}

func (t *tracedWorkload) PayloadFor(c *mpi.Comm, step int, prep any, renderer int) (int64, any) {
	t0 := t.rec.now()
	n, v := t.inner.PayloadFor(c, step, prep, renderer)
	t.rec.payload[c.Rank()][renderer].add(t.rec, c.Rank(), step, stPayload, t0)
	return n, v
}

func (t *tracedWorkload) LICPayload(c *mpi.Comm, step int, prep any) (int64, any, error) {
	t0 := t.rec.now()
	n, v, err := t.inner.LICPayload(c, step, prep)
	t.rec.ranks[c.Rank()].add(t.rec, c.Rank(), step, stLIC, t0)
	return n, v, err
}

func (t *tracedWorkload) Render(c *mpi.Comm, step, r int, pieces []mpi.Message) (any, error) {
	t0 := t.rec.now()
	v, err := t.inner.Render(c, step, r, pieces)
	t.rec.ranks[c.Rank()].add(t.rec, c.Rank(), step, stRender, t0)
	return v, err
}

func (t *tracedWorkload) Composite(c *mpi.Comm, step, r int, group []int, rendered any) (int64, any, error) {
	t0 := t.rec.now()
	n, v, err := t.inner.Composite(c, step, r, group, rendered)
	t.rec.ranks[c.Rank()].add(t.rec, c.Rank(), step, stComposite, t0)
	return n, v, err
}

func (t *tracedWorkload) Assemble(c *mpi.Comm, step int, strips []mpi.Message, lic *mpi.Message) error {
	t0 := t.rec.now()
	err := t.inner.Assemble(c, step, strips, lic)
	t.rec.ranks[c.Rank()].add(t.rec, c.Rank(), step, stAssemble, t0)
	return err
}

// tracedStore forwards to the real store and records a span per ReadAt
// and Size call, plus a count of the calls that failed.
type tracedStore struct {
	inner pfs.Store
	rec   *recorder
	// rankOf resolves the calling world rank; nil (serve: the callers are
	// concurrent one-rank sessions) records every span with rank -1.
	rankOf func(c *mpi.Comm, name string) int
	errors atomic.Int64
}

func (s *tracedStore) record(c *mpi.Comm, name string, st stage, t0 int64, bytes int, err error) {
	if err != nil {
		s.errors.Add(1)
	}
	rank := -1
	if s.rankOf != nil && c != nil {
		rank = s.rankOf(c, name)
	}
	sp := span{pass: s.rec.pass.Load(), step: -1, rank: int32(rank), stage: st,
		start: t0, dur: s.rec.now() - t0, bytes: int64(bytes)}
	s.rec.mu.Lock()
	s.rec.store = append(s.rec.store, sp)
	s.rec.mu.Unlock()
}

func (s *tracedStore) Size(name string) (int64, error) {
	t0 := s.rec.now()
	n, err := s.inner.Size(name)
	s.record(nil, name, stStat, t0, 0, err)
	return n, err
}

func (s *tracedStore) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	t0 := s.rec.now()
	err := s.inner.ReadAt(c, name, off, buf)
	s.record(c, name, stRead, t0, len(buf), err)
	return err
}

func (s *tracedStore) Write(name string, data []byte) error { return s.inner.Write(name, data) }

// storeTotals returns the in-pass store traffic: ReadAt calls, the bytes
// they read, and the time spent inside the store (reads and stats).
func (r *recorder) storeTotals() (reads, bytes, ns int64) {
	for _, sp := range r.store {
		if sp.pass < 0 {
			continue
		}
		ns += sp.dur
		if sp.stage == stRead {
			reads++
			bytes += sp.bytes
		}
	}
	return reads, bytes, ns
}

// storeSelfSplit attributes every in-pass store span that carries a rank
// to the stage span on that rank's lane containing it, and returns the
// store time found inside each stage. Stage spans on one lane do not
// overlap, so the containing span is unique; a lane's spans are in start
// order because one goroutine appended them.
func (r *recorder) storeSelfSplit() (inStage [numStages]int64) {
	for _, sp := range r.store {
		if sp.pass < 0 || sp.rank < 0 || int(sp.rank) >= len(r.ranks) {
			continue
		}
		l := r.ranks[sp.rank].spans
		i := sort.Search(len(l), func(i int) bool { return l[i].start > sp.start }) - 1
		if i >= 0 && sp.start+sp.dur <= l[i].start+l[i].dur {
			inStage[l[i].stage] += sp.dur
		}
	}
	return inStage
}

// writeChromeTrace writes every recorded span as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev): one thread per rank,
// payload-build slots and the store on threads of their own.
func (r *recorder) writeChromeTrace(path string, laneName func(rank int) string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := true
	event := func(format string, args ...any) {
		if first {
			fmt.Fprint(w, "[\n")
			first = false
		} else {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, format, args...)
	}
	thread := func(tid int, name string) {
		event(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, name)
	}
	emit := func(tid int, sp span) {
		event(`{"name":%q,"cat":"quakebench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"pass":%d,"step":%d,"rank":%d,"bytes":%d}}`,
			stageName[sp.stage], tid, float64(sp.start)/1e3, float64(sp.dur)/1e3, sp.pass, sp.step, sp.rank, sp.bytes)
	}
	for rank := range r.ranks {
		thread(rank, laneName(rank))
		for _, sp := range r.ranks[rank].spans {
			emit(rank, sp)
		}
	}
	tid := len(r.ranks)
	for in := range r.payload {
		for rd := range r.payload[in] {
			thread(tid, fmt.Sprintf("%s payload for renderer %d", laneName(in), rd))
			for _, sp := range r.payload[in][rd].spans {
				emit(tid, sp)
			}
			tid++
		}
	}
	// Store spans nest inside the stage that issued them when their rank
	// is known; the rest (construction-time scans, concurrent serve
	// sessions) go on a thread of their own.
	thread(tid, "pfs (caller rank not visible)")
	for _, sp := range r.store {
		if sp.rank >= 0 && int(sp.rank) < len(r.ranks) {
			emit(int(sp.rank), sp)
		} else {
			emit(tid, sp)
		}
	}
	if first {
		fmt.Fprint(w, "[")
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
