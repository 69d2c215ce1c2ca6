package core

// The temporal-enhancement hand-off (magQuant): with more than one group
// the input rank that reads step t gives its node magnitudes to the one
// that reads step t+1, which quantizes from the two arrays instead of
// reading step t itself. These tests hold it to the frozen four-pass chain
// on every layout, pin that the previous step is read only where no
// hand-off can come (a window's first step), and drive every path that
// must send a marker instead: a failed step, a stale collective round and
// a lost predecessor.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/quake"
)

// readCounter counts the ReadAt calls that reach each object, and which
// world ranks made them.
type readCounter struct {
	pfs.Store
	mu     sync.Mutex
	reads  map[string]int
	byRank map[[2]any]int // (world rank, object) -> reads; collective sub-communicator reads are left out
	world  int
}

func newReadCounter(s pfs.Store, world int) *readCounter {
	return &readCounter{Store: s, world: world, reads: map[string]int{}, byRank: map[[2]any]int{}}
}

func (s *readCounter) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	s.mu.Lock()
	s.reads[name]++
	if c != nil && c.Size() == s.world {
		s.byRank[[2]any{c.Rank(), name}]++
	}
	s.mu.Unlock()
	return s.Store.ReadAt(c, name, off, buf)
}

func (s *readCounter) reset() {
	s.mu.Lock()
	clear(s.reads)
	clear(s.byRank)
	s.mu.Unlock()
}

// quantTap checks, after every Fetch, the input rank's quantized values
// against want (dataset step -> every node's value) on the part's nodes.
type quantTap struct {
	*RealWorkload
	t       *testing.T
	want    [][]uint8
	mu      sync.Mutex
	fetches int
}

func (q *quantTap) Fetch(c *mpi.Comm, t, part, m int) (any, error) {
	prep, err := q.RealWorkload.Fetch(c, t, part, m)
	if err != nil {
		return prep, err
	}
	scr := prep.(*ipScratch)
	want := q.want[q.stepBase+t]
	for i, id := range q.ds.partIDs[part] {
		if scr.q[i] != want[id] {
			q.t.Errorf("dataset step %d part %d node %d: q %d, frozen chain %d", q.stepBase+t, part, id, scr.q[i], want[id])
			break
		}
	}
	q.mu.Lock()
	q.fetches++
	q.mu.Unlock()
	return prep, nil
}

// handoffStrategies are the three read strategies the hand-off rides on.
var handoffStrategies = []struct {
	name string
	mod  func(*Options)
}{
	{"collective-adaptive", func(o *Options) { o.ReadStrategy, o.AdaptiveFetch = ReadCollective, true }},
	{"independent-adaptive", func(o *Options) { o.AdaptiveFetch = true }},
	{"independent", func(o *Options) {}},
}

// TestHandoffMatchesFrozen runs enhanced pipelines on G ∈ {1, 2, 3} groups
// of m ∈ {1, 2} input ranks under each read strategy, with gain 0 and 3,
// over the whole dataset and over a window that starts past step 0. After
// every Fetch each input rank's quantized values must be the frozen
// chain's on its part's nodes; every run's frames must be bit-identical to
// the first layout's; and with more than one group the step objects must
// be read exactly as often as a run that reads no previous step would read
// them, but for the window's first step, which reads its previous object
// itself. One group hands nothing off: every step reads its previous
// object, as it always has.
//
// Mutation-checked: magnitudeQuantize enhancing the previous step's
// magnitude instead of the current one (the gain-3 values differ) and
// handsOff never handing off (the read counts give the fallback read away)
// each fail this test.
func TestHandoffMatchesFrozen(t *testing.T) {
	const steps, lo = 6, 2
	store := buildDataset(t, steps)
	type key struct {
		gain float32
		lo   int
	}
	refs := map[key][]*img.Image{}
	want := map[float32][][]uint8{}
	var vmax float32
	for _, st := range handoffStrategies {
		for groups := 1; groups <= 3; groups++ {
			for m := 1; m <= 2; m++ {
				l := Layout{Groups: groups, IPsPerGroup: m, Renderers: 2, Outputs: 1}
				t.Run(fmt.Sprintf("%s/G%d/m%d", st.name, groups, m), func(t *testing.T) {
					opts := smallOpts(24, 24)
					opts.Enhancement = true
					st.mod(&opts)
					for _, gain := range []float32{0, 3} {
						opts.EnhanceGain = gain
						w, err := NewRealWorkload(l, opts, store)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(w.Close)
						ds := w.ds
						if want[gain] == nil {
							want[gain] = frozenSteps(t, store, steps, ds.meta.NumNodes, true, gain, ds.vmax)
							vmax = ds.vmax
						}
						if ds.vmax != vmax {
							t.Fatalf("dataset range %v, the frozen chain quantized over %v", ds.vmax, vmax)
						}
						rc := newReadCounter(store, l.WorldSize())
						w.store = rc
						tap := &quantTap{RealWorkload: w, t: t, want: want[gain]}
						for _, from := range []int{0, lo} {
							if err := w.SetStepWindow(from, steps); err != nil {
								t.Fatal(err)
							}
							rc.reset()
							tap.fetches = 0
							runWorkloadOver(t, w, tap, l, overReal, nil)
							if n := (steps - from) * m; tap.fetches != n {
								t.Fatalf("gain %v window [%d, %d): %d fetches, want %d", gain, from, steps, tap.fetches, n)
							}
							if groups > 1 {
								requireWindowReads(t, rc, from, steps)
							}
							k := key{gain, from}
							for s := 0; s < steps-from; s++ {
								got := w.Frame(s)
								if got == nil {
									t.Fatalf("gain %v window [%d, %d): no frame %d", gain, from, steps, s)
								}
								if len(refs[k]) == s {
									refs[k] = append(refs[k], got.Clone())
									continue
								}
								if d := img.MaxAbsDiff(refs[k][s], got); d != 0 {
									t.Errorf("gain %v dataset step %d: frame differs from the first layout's (max abs %g)", gain, from+s, d)
								}
							}
						}
					}
				})
			}
		}
	}
}

// requireWindowReads pins where step objects were read in a run of dataset
// steps [from, to): every object of the window as often as every other —
// each by the step that owns it, and by no step after it — and the object
// before the window only when there is one, by the window's first step.
func requireWindowReads(t *testing.T, rc *readCounter, from, to int) {
	t.Helper()
	per := rc.reads[quake.StepObject(to-1)]
	if per == 0 {
		t.Fatalf("window [%d, %d): the last step's object was never read", from, to)
	}
	for s := from; s < to; s++ {
		if got := rc.reads[quake.StepObject(s)]; got != per {
			t.Errorf("window [%d, %d): step %d's object read %d times, step %d's %d: a step read its previous object", from, to, s, got, to-1, per)
		}
	}
	for name, n := range rc.reads {
		inWindow := false
		for s := from; s < to; s++ {
			inWindow = inWindow || name == quake.StepObject(s)
		}
		if !inWindow && !(from > 0 && name == quake.StepObject(from-1)) {
			t.Errorf("window [%d, %d): object %s read %d times", from, to, name, n)
		}
	}
	if from > 0 && rc.reads[quake.StepObject(from-1)] == 0 {
		t.Errorf("window [%d, %d): the first step never read step %d's object", from, to, from-1)
	}
}

// overlayStore serves the objects in top in place of the clean store's.
type overlayStore struct {
	pfs.Store
	top *pfs.MemStore
}

func (s overlayStore) Size(name string) (int64, error) {
	if n, err := s.top.Size(name); err == nil {
		return n, nil
	}
	return s.Store.Size(name)
}

func (s overlayStore) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	if _, err := s.top.Size(name); err == nil {
		return s.top.ReadAt(c, name, off, buf)
	}
	return s.Store.ReadAt(c, name, off, buf)
}

// TestHandoffCorruptStepDegradesPair: under enhancement on two groups, a
// step object that is cut short or holds a non-finite word in every record
// fails its own step, which sends a marker instead of magnitudes, so the
// next step reads it itself and fails the same way. Exactly {bad, bad+1}
// degrade — the set reading both records gives — and every other frame is
// bit-identical to the clean run, in process and over loopback TCP.
//
// Mutation-checked: settleHandoff sending no marker (the successor waits
// forever), takeHandoff treating a marker as zero magnitudes (step bad+1
// succeeds) and settleHandoff not draining the hand-off of a step that
// failed before it needed it (RunNet reports the unconsumed message) each
// fail this test.
func TestHandoffCorruptStepDegradesPair(t *testing.T) {
	const steps, bad = 5, 2
	clean := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	n, err := clean.Size(quake.StepObject(bad))
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, n)
	if err := clean.ReadAt(nil, quake.StepObject(bad), 0, whole); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(whole)
	for i := 0; i+quake.BytesPerNode <= len(corrupt); i += quake.BytesPerNode {
		binary.LittleEndian.PutUint32(corrupt[i:], 0x7f800000)
	}
	for _, st := range handoffStrategies[1:] {
		opts := tolerant(32, 32)
		opts.Enhancement, opts.EnhanceGain = true, 3
		st.mod(&opts)
		ref, _, _ := runPipelineOver(t, clean, l, opts, overReal, nil)
		for _, dmg := range []struct {
			name string
			obj  []byte
		}{{"truncated", whole[:quake.BytesPerNode]}, {"corrupt", corrupt}} {
			for _, tr := range []struct {
				name string
				run  transportRun
			}{{"real", overReal}, {"net", overNet}} {
				t.Run(st.name+"/"+dmg.name+"/"+tr.name, func(t *testing.T) {
					w, err := NewRealWorkload(l, opts, clean)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(w.Close)
					top := pfs.NewMemStore()
					if err := top.Write(quake.StepObject(bad), dmg.obj); err != nil {
						t.Fatal(err)
					}
					res, _ := runWorkloadOver(t, w, w, l, tr.run, func(st pfs.Store) pfs.Store { return overlayStore{st, top} })
					if res.DegradedFrames != 2 {
						t.Errorf("degraded frames = %d, want 2", res.DegradedFrames)
					}
					for s := 0; s < steps; s++ {
						if got, want := w.FrameDegraded(s), s == bad || s == bad+1; got != want {
							t.Errorf("FrameDegraded(%d) = %v, want %v", s, got, want)
						}
						if s != bad && s != bad+1 {
							if d := img.MaxAbsDiff(ref.Frame(s), w.Frame(s)); d != 0 {
								t.Errorf("step %d differs from the clean run (max abs %g)", s, d)
							}
						}
					}
				})
			}
		}
	}
}

// TestHandoffStaleCollectiveRoundFallsBack: in collective mode an
// unopenable step object makes its group read the round from the handle
// still open on the group's previous object. Those magnitudes are not the
// step's, so the group sends markers, and the next step reads the step
// itself, fails to open it too and degrades: frames {bad, bad+1} degrade
// with the accounting reading both records gives — 2 events and 2 stale
// steps each — and the rest are bit-identical to the clean run.
//
// Mutation-checked: fetchStep's stale branch not sending the marker (the
// stale round's magnitudes go out, step bad+1 succeeds on them) fails this
// test.
func TestHandoffStaleCollectiveRoundFallsBack(t *testing.T) {
	const steps, bad = 5, 2
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := tolerant(32, 32)
	opts.ReadStrategy, opts.Enhancement, opts.EnhanceGain = ReadCollective, true, 3
	ref, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)
	w, res, _ := runPipelineOver(t, store, l, opts, overReal, func(st pfs.Store) pfs.Store {
		return faultinject.Wrap(st, faultinject.Config{
			Seed: 5, PPermanent: 1, Match: onlyObject(quake.StepObject(bad)),
		})
	})
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d", res.Frames, steps)
	}
	if res.FaultEvents != 4 || res.Retries != 0 || res.StaleSteps != 4 || res.DegradedFrames != 2 {
		t.Errorf("accounting = events:%d retries:%d stale:%d degraded:%d, want 4/0/4/2",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	for s := 0; s < steps; s++ {
		if got, want := w.FrameDegraded(s), s == bad || s == bad+1; got != want {
			t.Errorf("FrameDegraded(%d) = %v, want %v", s, got, want)
		}
		if s != bad && s != bad+1 {
			if d := img.MaxAbsDiff(ref.Frame(s), w.Frame(s)); d != 0 {
				t.Errorf("step %d differs from the clean run (max abs %g)", s, d)
			}
		}
	}
}

// TestHandoffLostPredecessorFallsBack: over loopback TCP under the fault
// policy, input rank 0 (group 0: steps 0, 2, 4) dies at its fourth send,
// step 2's hand-off, after step 0's hand-off and pieces went out. Rank 1
// (steps 1 and 3) takes step 0's magnitudes from the wire, then finds its
// predecessor lost and reads step 2 itself: it reads step 2's object and
// never step 0's, and its frames 1 and 3 are bit-identical to the clean
// run, while the dead rank's frames 2 and 4 degrade.
//
// Mutation-checked: receiveHandoff failing on a lost predecessor under
// the fault policy (rank 1's run errors) fails this test.
func TestHandoffLostPredecessorFallsBack(t *testing.T) {
	const steps, killRank = 5, 0
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	opts := tolerant(32, 32)
	opts.Enhancement, opts.EnhanceGain = true, 3
	ref, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)

	nc := faultinject.NewNetChaos(faultinject.NetChaosConfig{Kill: true, KillRank: killRank, KillAtSend: 3})
	tun := mpi.NetTuning{
		Heartbeat:         -1,
		PeerTimeout:       250 * time.Millisecond,
		ReconnectAttempts: 2,
		ReconnectWindow:   300 * time.Millisecond,
		Fault:             nc,
	}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	rc := newReadCounter(store, l.WorldSize())
	w.store = rc
	p, err := NewPipeline(l, w)
	if err != nil {
		t.Fatal(err)
	}
	runErrs := make([]error, l.WorldSize())
	var mu sync.Mutex
	rep, err := mpi.RunNetErrs(l.WorldSize(), tun, func(c *mpi.Comm) {
		rerr := p.Run(c)
		mu.Lock()
		runErrs[c.Rank()] = rerr
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Errs[killRank], mpi.ErrRankKilled) {
		t.Fatalf("rank %d error = %v, want ErrRankKilled", killRank, rep.Errs[killRank])
	}
	for r := range rep.Errs {
		if r != killRank && (rep.Errs[r] != nil || runErrs[r] != nil) {
			t.Errorf("survivor rank %d: %v / %v", r, rep.Errs[r], runErrs[r])
		}
	}
	if got := rc.byRank[[2]any{1, quake.StepObject(2)}]; got == 0 {
		t.Error("rank 1 never read step 2's object: step 3 did not fall back")
	}
	if got := rc.byRank[[2]any{1, quake.StepObject(0)}]; got != 0 {
		t.Errorf("rank 1 read step 0's object %d times: step 0's hand-off was lost", got)
	}
	for s := 0; s < steps; s++ {
		if got, want := w.FrameDegraded(s), s == 2 || s == 4; got != want {
			t.Errorf("FrameDegraded(%d) = %v, want %v", s, got, want)
		}
		if s%2 == 1 {
			if d := img.MaxAbsDiff(ref.Frame(s), w.Frame(s)); d != 0 {
				t.Errorf("step %d differs from the clean run (max abs %g)", s, d)
			}
		}
	}
}

// TestHandoffSteadyStateAllocFree gates the hand-off's steady state: two
// groups of two input ranks fetch a window in pipeline order — each step's
// collective round, its magnitudes sent to the next group's rank, the
// previous step's taken, quantized against and released back to the
// sender's pool — and a whole window's fetches allocate nothing once the
// pools hold what is in flight. Allocation counts are process-global, so a
// nonzero result implicates any of the four ranks.
func TestHandoffSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps, warm, rounds = 6, 8, 20
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"plain", nil},
		{"tolerant", func(o *Options) { o.Faults.Tolerate = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, l := fetchWorkload(t, handoffIO, steps, tc.mod)
			var avg float64
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				if c.Rank() >= l.NumInput() {
					return
				}
				g, part := c.Rank()/l.IPsPerGroup, c.Rank()%l.IPsPerGroup
				window := func() {
					for s := g; s < steps; s += l.Groups {
						if _, err := w.Fetch(c, s, part, l.IPsPerGroup); err != nil {
							t.Error(err)
						}
					}
				}
				for i := 0; i < warm; i++ {
					window()
				}
				if c.Rank() == 0 {
					avg = testing.AllocsPerRun(rounds, window)
				} else {
					for i := 0; i < rounds+1; i++ { // AllocsPerRun adds a warm-up call
						window()
					}
				}
			})
			if avg != 0 {
				t.Errorf("steady-state hand-off window allocates %v, want 0", avg)
			}
		})
	}
}

// TestMagPayloadRoundTrip: the magnitudes codec moves every float32 as its
// exact bit pattern — signed zeros, subnormals, +Inf from an overflowing
// magnitude — into values that owe nothing to the wire buffer (it is
// overwritten before they are checked), and declares nothing it does not
// carry: the wire body is 4 bytes per value.
func TestMagPayloadRoundTrip(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x7fffff), 1, 254.5, 3e38, float32(math.Inf(1))}
	var sender pool.Pool[magPayload]
	p := sender.Get()
	p.owner, p.mag = &sender, append(p.mag[:0], vals...)
	wire, err := encodeMagPayload(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 4*len(vals) {
		t.Fatalf("wire body %d bytes, want %d", len(wire), 4*len(vals))
	}
	if sender.Get() != p {
		t.Error("encoding did not release the payload to the sender's pool")
	}
	v, err := decodeMagPayload(mpi.NewWireReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	for k := range wire {
		wire[k] = 0xAA // the transport reuses this buffer
	}
	got := v.(*magPayload)
	defer got.release()
	if got.owner != &netMags || len(got.mag) != len(vals) {
		t.Fatalf("decoded %d values owned by %p, want %d from the receive pool", len(got.mag), got.owner, len(vals))
	}
	for i := range vals {
		if math.Float32bits(got.mag[i]) != math.Float32bits(vals[i]) {
			t.Errorf("value %d: %#x, sent %#x", i, math.Float32bits(got.mag[i]), math.Float32bits(vals[i]))
		}
	}
}

// magWire is the wire body of n magnitudes, value i being i/8.
func magWire(n int) []byte {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) / 8
	}
	return mpi.AppendFloat32s(nil, vals)
}

// TestMagPayloadRefusesHostile: a hand-off that lies is refused — by the
// codec where the wire alone can tell (a body that is not whole words), by
// the receiving rank where only its part can (a value count other than
// the part's node count, or a payload of another kind) — naming the step
// and the part, and without a panic.
//
// Mutation-checked: decodeMagPayload accepting a body of partial words and
// takeHandoff accepting any value count each fail this test and the
// committed seeds of FuzzDecodeMagPayload.
func TestMagPayloadRefusesHostile(t *testing.T) {
	w, _ := fetchWorkload(t, handoffIO, 2, nil)
	nodes := len(w.ds.partIDs[1])
	for _, tc := range []struct {
		name string
		wire []byte
		data any // used when wire is nil
		want string
	}{
		{"one-byte", []byte{1}, nil, "not whole float32 words"},
		{"word-and-a-half", make([]byte, 6), nil, "not whole float32 words"},
		{"part-nodes-plus-one-byte", append(magWire(nodes), 0), nil, "not whole float32 words"},
		{"empty", []byte{}, nil, fmt.Sprintf("holds 0 values, part 1 has %d nodes", nodes)},
		{"one-short", magWire(nodes - 1), nil, fmt.Sprintf("holds %d values, part 1 has %d nodes", nodes-1, nodes)},
		{"one-over", magWire(nodes + 1), nil, fmt.Sprintf("holds %d values, part 1 has %d nodes", nodes+1, nodes)},
		{"other-payload", nil, &dataPayload{}, "hand-off for part 1 is a *core.dataPayload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data
			if tc.wire != nil {
				v, err := decodeMagPayload(mpi.NewWireReader(tc.wire))
				if err != nil {
					if !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("decode error %q, want it to say %q", err, tc.want)
					}
					return
				}
				data = v
			}
			var h handoff
			err := w.takeHandoff(3, 1, data, &h)
			h.msg.release()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "step 3") {
				t.Fatalf("takeHandoff error %v, want one naming step 3 that says %q", err, tc.want)
			}
			if h.prev != nil {
				t.Error("a refused hand-off became the previous step's magnitudes")
			}
		})
	}
	// The honest hand-off is taken as it came.
	v, err := decodeMagPayload(mpi.NewWireReader(magWire(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	var h handoff
	if err := w.takeHandoff(3, 1, v, &h); err != nil || len(h.prev) != nodes || h.prev[nodes-1] != float32(nodes-1)/8 {
		t.Fatalf("honest hand-off: error %v, %d values", err, len(h.prev))
	}
	h.msg.release()
}

// FuzzDecodeMagPayload: on arbitrary wire bodies the magnitudes codec
// decodes exactly the bodies of whole words, to their words bit for bit,
// and the receiving rank takes a decoded hand-off exactly when it holds
// one value per node of its part live at the step.
func FuzzDecodeMagPayload(f *testing.F) {
	w, _ := fetchWorkload(f, handoffIO, 2, nil)
	const part = 0
	nodes := w.ds.partStep(1, part).nlive
	f.Add(magWire(nodes))
	f.Add(magWire(nodes - 1))
	f.Add(magWire(nodes + 1))
	f.Add(append(magWire(nodes), 7))
	f.Add(magWire(nodes)[:4*nodes-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, wire []byte) {
		v, err := decodeMagPayload(mpi.NewWireReader(wire))
		if (err == nil) != (len(wire)%4 == 0) {
			t.Fatalf("decode of %d bytes: error %v", len(wire), err)
		}
		if err != nil {
			return
		}
		p := v.(*magPayload)
		if len(p.mag) != len(wire)/4 {
			t.Fatalf("decoded %d values from %d bytes", len(p.mag), len(wire))
		}
		for i, m := range p.mag {
			if math.Float32bits(m) != binary.LittleEndian.Uint32(wire[4*i:]) {
				t.Fatalf("value %d is %#x, the wire holds %#x", i, math.Float32bits(m), binary.LittleEndian.Uint32(wire[4*i:]))
			}
		}
		var h handoff
		err = w.takeHandoff(1, part, v, &h)
		if h.msg != p {
			t.Fatal("a decoded hand-off was not kept for release")
		}
		h.msg.release()
		if (err == nil) != (len(p.mag) == nodes) {
			t.Fatalf("took %d values for a part of %d nodes: error %v", len(p.mag), nodes, err)
		}
	})
}
