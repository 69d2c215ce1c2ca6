package core

// PR 7's cross-transport equivalence suite: the same pipeline binary run
// over the wall-clock transport (RunReal), the discrete-event simulator
// (RunSim) and the TCP network backend (loopback RunNet) must produce
// bit-identical frames and identical per-rank message accounting. The
// network leg serializes every payload through the wire codecs and
// decodes into receiver-side pools, so this pins the whole
// encode/decode/ownership chain against the in-process reference —
// including the golden checksum, fault injection (chaos schedules are
// pure functions of seed/object/offset, so they replay exactly over the
// net), and the steady-state allocation guarantee once connections are
// warm.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/compositor"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/quake"
)

// requireSameTraffic demands identical per-rank accounting: the network
// transport must exchange exactly the messages the in-process transports
// do — same count, same declared bytes, rank by rank.
func requireSameTraffic(t *testing.T, name string, ref, got []commStats) {
	t.Helper()
	for r := range ref {
		if ref[r] != got[r] {
			t.Errorf("%s: rank %d traffic %+v, want %+v", name, r, got[r], ref[r])
		}
	}
}

// TestCrossTransportGoldenEquivalence runs the golden configuration over
// all three transports: frames bit-identical, per-rank accounting
// identical, and the network leg reproduces the golden checksum.
func TestCrossTransportGoldenEquivalence(t *testing.T) {
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	opts := smallOpts(48, 48)
	ref, refRes, refStats := runPipelineOver(t, store, l, opts, overReal, nil)
	for name, run := range map[string]transportRun{"sim": overSim, "net": overNet} {
		got, res, stats := runPipelineOver(t, store, l, opts, run, nil)
		if res.Frames != refRes.Frames {
			t.Fatalf("%s: %d frames, want %d", name, res.Frames, refRes.Frames)
		}
		requireFramesEqual(t, ref, got, steps)
		requireSameTraffic(t, name, refStats, stats)
		if name == "net" && runtime.GOARCH == "amd64" {
			h := fnv.New64a()
			for step := 0; step < steps; step++ {
				h.Write(quantizeFrame(got.Frame(step)))
			}
			if sum := h.Sum64(); sum != goldenFrameSum {
				t.Errorf("net golden checksum = %#x, want %#x", sum, goldenFrameSum)
			}
		}
	}
}

// TestCrossTransportCollectiveEquivalence exercises the heavier wire
// paths — collective reads (piece-batch shuffle), LIC underlay payloads,
// RLE-compressed fragments and multi-rank input groups — and demands the
// network run match the wall-clock run bit for bit with identical
// accounting.
func TestCrossTransportCollectiveEquivalence(t *testing.T) {
	const steps = 2
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := smallOpts(40, 40)
	opts.ReadStrategy = ReadCollective
	opts.LIC = true
	opts.LICSize = 32
	opts.Compress = true
	ref, refRes, refStats := runPipelineOver(t, store, l, opts, overReal, nil)
	got, res, stats := runPipelineOver(t, store, l, opts, overNet, nil)
	if res.Frames != refRes.Frames {
		t.Fatalf("net: %d frames, want %d", res.Frames, refRes.Frames)
	}
	requireFramesEqual(t, ref, got, steps)
	requireSameTraffic(t, "net", refStats, stats)
}

// TestCrossTransportEnhancedHandoffEquivalence runs batch_io's shape —
// two groups of two input ranks, collective adaptive reads, temporal
// enhancement — over all three transports: frames bit-identical, per-rank
// accounting identical. With every block live (FixedVMax) the magnitudes
// hand-off is all the traffic enhancement adds: each input rank sends one
// message of 4 bytes per part node for every step of its own but the last
// step of the run, and receives one for every step of its own but step 0.
// With the occupancy index every input rank's traffic is that run's with
// what the step plans set — the pieces and the hand-offs (planTraffic) —
// taken out as the every-block-live plans set it and put back as the
// index's do, and the frames are that run's.
func TestCrossTransportEnhancedHandoffEquivalence(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := smallOpts(40, 40)
	opts.ReadStrategy, opts.AdaptiveFetch = ReadCollective, true
	opts.EnhanceGain = 3
	scan, err := NewDataset(l, func() Options { o := opts; o.Enhancement = true; return o }(), store)
	if err != nil {
		t.Fatal(err)
	}
	dense := opts
	dense.FixedVMax = scan.VMax()
	_, _, plainStats := runPipelineOver(t, store, l, dense, overReal, nil)
	dense.Enhancement = true
	denseRef, _, denseStats := runPipelineOver(t, store, l, dense, overReal, nil)
	opts.Enhancement = true
	ref, refRes, refStats := runPipelineOver(t, store, l, opts, overReal, nil)
	requireFramesEqual(t, denseRef, ref, steps)
	densePlan, indexPlan := planTraffic(denseRef.ds, steps), planTraffic(ref.ds, steps)
	if slices.Equal(densePlan, indexPlan) {
		t.Fatal("the index leaves every block of the dataset live: its plans set the traffic every-block-live ones do")
	}
	for r := 0; r < l.NumInput(); r++ {
		g, part := r/l.IPsPerGroup, r%l.IPsPerGroup
		nodes := int64(len(ref.ds.partIDs[part]))
		var sent, recvd int
		for s := g; s < steps; s += l.Groups {
			if s+1 < steps {
				sent++
			}
			if s > 0 {
				recvd++
			}
		}
		want := plainStats[r]
		want.MsgsSent += sent
		want.BytesSent += int64(sent) * 4 * nodes
		want.MsgsRecv += recvd
		want.BytesRecv += int64(recvd) * 4 * nodes
		if denseStats[r] != want {
			t.Errorf("input rank %d traffic %+v, want the unenhanced run's plus the hand-offs: %+v", r, denseStats[r], want)
		}
		want = denseStats[r]
		want.MsgsSent += indexPlan[r].MsgsSent - densePlan[r].MsgsSent
		want.BytesSent += indexPlan[r].BytesSent - densePlan[r].BytesSent
		want.MsgsRecv += indexPlan[r].MsgsRecv - densePlan[r].MsgsRecv
		want.BytesRecv += indexPlan[r].BytesRecv - densePlan[r].BytesRecv
		if refStats[r] != want {
			t.Errorf("input rank %d traffic %+v, want the every-block-live run's with the index's plans: %+v", r, refStats[r], want)
		}
	}
	for name, run := range map[string]transportRun{"sim": overSim, "net": overNet} {
		got, res, stats := runPipelineOver(t, store, l, opts, run, nil)
		if res.Frames != refRes.Frames {
			t.Fatalf("%s: %d frames, want %d", name, res.Frames, refRes.Frames)
		}
		requireFramesEqual(t, ref, got, steps)
		requireSameTraffic(t, name, refStats, stats)
	}
}

// planTraffic is the traffic of every input rank of a run of steps over d
// that d's step plans set: the data pieces (one per renderer and step, 8
// bytes per run of a live block plus a byte per value, 1 for none) and the
// enhancement hand-offs (4 bytes per node live at the receiving step). A
// collective read's exchange runs on the group's sub-communicator, whose
// messages are its own, not the world communicator's.
func planTraffic(d *Dataset, steps int) []commStats {
	l := d.layout
	ts := make([]commStats, l.NumInput())
	for s := 0; s < steps; s++ {
		live := d.liveAt(s)
		for part := range l.IPsPerGroup {
			r := l.InputRank(s%l.Groups, part)
			for rr := range l.Renderers {
				bytes := int64(0)
				for _, run := range d.gather[part][rr].runs {
					if blockLive(live, run.Block) {
						bytes += 8 + int64(run.Len)
					}
				}
				ts[r].MsgsSent++
				ts[r].BytesSent += max(bytes, 1)
			}
			if d.opts.Enhancement && l.Groups > 1 && s+1 < steps {
				bytes := 4 * int64(d.partStep(s+1, part).nlive)
				next := l.InputRank((s+1)%l.Groups, part)
				ts[r].MsgsSent++
				ts[r].BytesSent += bytes
				ts[next].MsgsRecv++
				ts[next].BytesRecv += bytes
			}
		}
	}
	return ts
}

// TestCrossTransportDirectSendEquivalence covers the remaining
// compositor wire shapes (direct-send exchange) over the network.
func TestCrossTransportDirectSendEquivalence(t *testing.T) {
	const steps = 2
	store := buildDataset(t, steps)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 3, Outputs: 2}
	opts := smallOpts(40, 40)
	opts.Compositor = CompositeDirectSend
	ref, refRes, refStats := runPipelineOver(t, store, l, opts, overReal, nil)
	got, res, stats := runPipelineOver(t, store, l, opts, overNet, nil)
	if res.Frames != refRes.Frames {
		t.Fatalf("net: %d frames, want %d", res.Frames, refRes.Frames)
	}
	requireFramesEqual(t, ref, got, steps)
	requireSameTraffic(t, "net", refStats, stats)
}

// stripMeter wraps a RealWorkload and checks, strip by strip, that the size
// a strip message declares is the size of what it carries — 16 bytes per
// pixel raw, the stream's length compressed — where the renderer sends it
// (Composite) and again where the output rank holds what arrived
// (Assemble: the envelope's Bytes against the payload, decoded from the
// wire on RunNet). It keeps both tables for comparison across transports.
type stripMeter struct {
	*RealWorkload
	t *testing.T

	mu         sync.Mutex
	sent, recv map[[2]int]int64 // (step, renderer world rank) -> declared bytes
	emptyRLE   int              // compressed strips with no rows and no bytes
	degraded   int              // strips that carried the renderer's degraded flag
}

func newStripMeter(t *testing.T, w *RealWorkload) *stripMeter {
	return &stripMeter{RealWorkload: w, t: t, sent: map[[2]int]int64{}, recv: map[[2]int]int64{}}
}

// carried is the byte size of the strip the payload holds.
func (m *stripMeter) carried(sp *stripPayload) int64 {
	if sp.compressed != m.opts.Compress || (sp.compressed && sp.Img != nil) {
		m.t.Errorf("strip payload compressed=%v Img=%v under Compress=%v", sp.compressed, sp.Img != nil, m.opts.Compress)
	}
	if sp.compressed {
		return int64(len(sp.rle))
	}
	return int64(16 * m.opts.Width * sp.Strip.H)
}

func (m *stripMeter) Composite(c *mpi.Comm, t, r int, group []int, rnd any) (int64, any, error) {
	n, v, err := m.RealWorkload.Composite(c, t, r, group, rnd)
	if err != nil {
		return n, v, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if want := m.carried(v.(*stripPayload)); n != want {
		m.t.Errorf("step %d renderer %d declares %d strip bytes, carries %d", t, r, n, want)
	}
	m.sent[[2]int{t, c.Rank()}] = n
	return n, v, nil
}

func (m *stripMeter) Assemble(c *mpi.Comm, t int, strips []mpi.Message, lic *mpi.Message) error {
	m.mu.Lock()
	for _, s := range strips {
		sp, ok := s.Data.(*stripPayload)
		if !ok {
			continue
		}
		if want := m.carried(sp); s.Bytes != want {
			m.t.Errorf("step %d: strip from rank %d arrived declaring %d bytes, carries %d", t, s.Src, s.Bytes, want)
		}
		m.recv[[2]int{t, s.Src}] = s.Bytes
		if sp.compressed && sp.Strip.H == 0 && len(sp.rle) == 0 {
			m.emptyRLE++
		}
		if sp.degraded {
			m.degraded++
		}
	}
	m.mu.Unlock()
	return m.RealWorkload.Assemble(c, t, strips, lic)
}

func sumBytes(tab map[[2]int]int64) (n int64) {
	for _, b := range tab {
		n += b
	}
	return n
}

// TestCompressedStripsBitIdentical pins the renderer -> output hop under
// Options.Compress against the raw hop it replaces: the same frames in
// every float bit (not only the 8-bit checksum) and the same degraded
// flags, on RunReal and RunNet, for SLIC and direct send — including a
// frame so short that one of six renderers owns no rows (an empty stream:
// zero rows, zero bytes) and a run whose step 3 is served stale, so its
// strips travel flagged degraded. Accounting: every strip message declares
// exactly the bytes it carries at both ends (stripMeter), the two
// transports agree strip by strip and rank by rank, the raw hop still
// ships 16 bytes per frame pixel, and the compressed hop ships less.
//
// Mutation-checked: encodeRLE dropping its last lit run record, Composite
// declaring the raw size under Compress and decodeStripPayload keeping the
// wire buffer each fail this test, and PasteRLE pasting at Y0+1 panics it.
// Two mutants it cannot see, and what does: dropping the trailing (skip, 0)
// record changes no pixel anywhere; treating an alpha of -0 as lit changes
// none here, because no canvas holds one (compositor's
// TestPasteRLEMatchesRawCopy plants one and fails).
func TestCompressedStripsBitIdentical(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	staleStep3 := func(st pfs.Store) pfs.Store {
		return faultinject.Wrap(st, faultinject.Config{Seed: 3, PPermanent: 1, Match: onlyObject(quake.StepObject(3))})
	}
	for _, tc := range []struct {
		name       string
		l          Layout
		w, h       int
		compositor CompositorKind
		lic        bool
		wrap       func(pfs.Store) pfs.Store
		emptyStrip bool
	}{
		{name: "slic", l: Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, w: 48, h: 48},
		{name: "slic-lic", l: Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, w: 48, h: 40, lic: true},
		{name: "directsend", l: Layout{Groups: 1, IPsPerGroup: 1, Renderers: 3, Outputs: 2}, w: 40, h: 40, compositor: CompositeDirectSend},
		{name: "slic-empty-strip", l: Layout{Groups: 1, IPsPerGroup: 1, Renderers: 6, Outputs: 1}, w: 32, h: 5, emptyStrip: true},
		{name: "directsend-empty-strip", l: Layout{Groups: 1, IPsPerGroup: 1, Renderers: 6, Outputs: 1}, w: 32, h: 5, compositor: CompositeDirectSend, emptyStrip: true},
		{name: "slic-degraded", l: Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, w: 48, h: 48, wrap: staleStep3},
		{name: "directsend-degraded", l: Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, w: 48, h: 48, compositor: CompositeDirectSend, wrap: staleStep3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(compress bool, over transportRun) (*stripMeter, []commStats) {
				opts := smallOpts(tc.w, tc.h)
				if tc.wrap != nil {
					opts = tolerant(tc.w, tc.h)
				}
				opts.Compositor, opts.Compress = tc.compositor, compress
				opts.LIC, opts.LICSize = tc.lic, 24
				w, err := NewRealWorkload(tc.l, opts, store)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
				m := newStripMeter(t, w)
				res, stats := runWorkloadOver(t, w, m, tc.l, over, tc.wrap)
				if res.Frames != steps {
					t.Fatalf("%d frames, want %d", res.Frames, steps)
				}
				return m, stats
			}
			raw, _ := run(false, overReal)
			if got, want := sumBytes(raw.sent), int64(steps*16*tc.w*tc.h); got != want || sumBytes(raw.recv) != want {
				t.Errorf("raw strips: %d bytes sent, %d received, want 16 per frame pixel = %d", got, sumBytes(raw.recv), want)
			}
			rle, rleStats := run(true, overReal)
			net, netStats := run(true, overNet)
			for name, got := range map[string]*stripMeter{"real": rle, "net": net} {
				for step := 0; step < steps; step++ {
					if !bytes.Equal(frameBits(raw.Frame(step)), frameBits(got.Frame(step))) {
						t.Errorf("%s: step %d differs from the uncompressed run in some float bit", name, step)
					}
					if raw.FrameDegraded(step) != got.FrameDegraded(step) {
						t.Errorf("%s: step %d degraded = %v, uncompressed run says %v", name, step, got.FrameDegraded(step), raw.FrameDegraded(step))
					}
				}
				if len(got.sent) != steps*tc.l.Renderers || len(got.recv) != len(got.sent) {
					t.Fatalf("%s: %d strips sent, %d received, want %d", name, len(got.sent), len(got.recv), steps*tc.l.Renderers)
				}
				for k, n := range got.sent {
					if got.recv[k] != n || rle.sent[k] != n {
						t.Errorf("%s: step %d rank %d strip: sent %d, received %d, RunReal sent %d", name, k[0], k[1], n, got.recv[k], rle.sent[k])
					}
				}
				if tc.emptyStrip && got.emptyRLE == 0 {
					t.Errorf("%s: no renderer shipped an empty stream; the layout no longer has a rowless strip", name)
				}
				if (tc.wrap != nil) != (got.degraded > 0) {
					t.Errorf("%s: %d strips carried the degraded flag", name, got.degraded)
				}
			}
			requireSameTraffic(t, "net", rleStats, netStats)
			if c, r := sumBytes(rle.sent), sumBytes(raw.sent); c >= r {
				t.Errorf("compressed strips total %d bytes, raw %d: nothing was saved", c, r)
			}
		})
	}
}

// TestChaosOverNet replays a fixed-seed healable fault schedule with the
// pipeline distributed over the TCP transport. Fault schedules are pure
// functions of (seed, object, offset), so the same retries fire in the
// same places as in-process, and the run must converge to frames
// bit-identical to a clean wall-clock run with the usual exact
// accounting: every fault healed, nothing degraded.
func TestChaosOverNet(t *testing.T) {
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	ref, _, _ := runPipelineOver(t, store, l, tolerant(48, 48), overReal, nil)

	var inj *faultinject.Store
	w, res, _ := runPipelineOver(t, store, l, tolerant(48, 48), overNet, func(st pfs.Store) pfs.Store {
		inj = faultinject.Wrap(st, faultinject.Config{
			Seed:       42,
			PTransient: 0.5,
			PShortRead: 0.2,
			PCorrupt:   0.2,
			Match:      stepObjectsOnly,
		})
		return inj
	})
	st := inj.Stats()
	if st.Transients+st.ShortReads+st.Corrupts == 0 {
		t.Fatal("seed injected no faults: the chaos leg tests nothing")
	}
	if res.FaultEvents == 0 || res.Retries == 0 {
		t.Errorf("faults fired but pipeline accounted none (events=%d retries=%d)",
			res.FaultEvents, res.Retries)
	}
	if res.StaleSteps != 0 || res.DegradedFrames != 0 {
		t.Errorf("healable schedule degraded the run: stale=%d degraded=%d",
			res.StaleSteps, res.DegradedFrames)
	}
	requireFramesEqual(t, ref, w, steps)
}

// TestNetSendRecvAllocFree pins the steady-state allocation guarantee of
// the network data path end to end: once connections, codec scratch and
// receive pools are warm, a pooled-payload round trip — encode, socket
// write, reader goroutine, frame decode into the receive pool, mailbox
// delivery, consume, release — must not allocate on either side. Two
// payloads: an input rank's data piece, and a renderer's compressed strip
// (stream copied into the frame, copied out into the receive pool's
// buffer, pasted by the consumer). GC is disabled around the measured
// window so the collector's own bookkeeping does not pollute the malloc
// counter.
func TestNetSendRecvAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	template := make([]byte, 512)
	for i := range template {
		template[i] = byte(i * 7)
	}
	var dataPool pool.Pool[dataPayload]
	t.Run("data", func(t *testing.T) {
		netRoundTripAllocFree(t, func() (int64, any) {
			p := getData(&dataPool)
			p.vals = append(p.vals[:0], template...)
			p.runs = append(p.runs,
				blockRun{Block: 1, Off: 0, Vals: p.vals[:256:256]},
				blockRun{Block: 2, Off: 8, Vals: p.vals[256:512:512]})
			return int64(len(template)), p
		}, func(m mpi.Message) error {
			dp := m.Data.(*dataPayload)
			defer dp.release()
			if len(dp.vals) != len(template) || len(dp.runs) != 2 {
				return fmt.Errorf("decoded %d vals / %d runs", len(dp.vals), len(dp.runs))
			}
			return nil
		})
	})
	// A 16x8 strip at row 4 of a 16x16 frame: transparent but for two runs.
	strip := img.New(16, 8)
	for _, p := range []int{3, 4, 5, 70, 71} {
		copy(strip.Pix[4*p:], []float32{0.1, 0.2, 0.3, 0.5})
	}
	stream := compositor.EncodeRLEInto(nil, strip)
	var stripPool pool.Pool[stripPayload]
	frame := img.New(16, 16)
	t.Run("rle-strip", func(t *testing.T) {
		netRoundTripAllocFree(t, func() (int64, any) {
			sp := stripPool.Get()
			sp.owner = &stripPool
			sp.Strip = compositor.Strip{Y0: 4, H: 8}
			sp.rle = append(sp.rle[:0], stream...)
			sp.compressed = true
			return int64(len(sp.rle)), sp
		}, func(m mpi.Message) error {
			sp := m.Data.(*stripPayload)
			defer sp.release()
			if m.Bytes != int64(len(stream)) || !bytes.Equal(sp.rle, stream) {
				return fmt.Errorf("declared %d bytes, decoded a %d-byte stream, sent %d", m.Bytes, len(sp.rle), len(stream))
			}
			return pasteStrip(frame, sp)
		})
		if !bytes.Equal(frameBits(frame)[16*16*4:16*16*12], frameBits(strip)) {
			t.Error("the pasted rows are not the strip that was sent")
		}
	})
}

// netRoundTripAllocFree sends build()'s payload from rank 0 to rank 1 of a
// loopback job, hands it to consume there (which must release it), waits
// for an empty reply, and fails if a round allocates at steady state. It
// reads the least of three windows of rounds. A round's own code
// allocates nothing, and no transport lock is held across a socket write
// (the link's one write path, flush, releases the peer lock before it
// writes), so the reader's acks no longer park behind a sender. What a
// window can still catch is the runtime's own: on a machine kept busy by
// another test binary, 200 runs read 0 in 585 of 600 windows and 1 or 2
// allocations (at most 0.008/round) in the rest, the memory profile
// showing only the runtime's GC and thread start-up, and the least of
// each run's three windows read 0.
func netRoundTripAllocFree(t *testing.T, build func() (int64, any), consume func(m mpi.Message) error) {
	const warmup, rounds, windows = 64, 256, 3
	perRound := math.Inf(1)
	if _, err := mpi.RunNet(2, func(c *mpi.Comm) {
		const tag = 21
		if c.Rank() == 1 {
			for i := 0; i < warmup+windows*rounds; i++ {
				if err := consume(c.Recv(0, tag)); err != nil {
					panic(fmt.Sprintf("round %d: %v", i, err))
				}
				c.Send(0, tag, 0, nil)
			}
			return
		}
		round := func() {
			n, p := build()
			c.Send(1, tag, n, p)
			c.Recv(1, tag)
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		for w := 0; w < windows; w++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			perRound = min(perRound, float64(after.Mallocs-before.Mallocs)/rounds)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The hard target is zero; the budget tolerates the odd runtime
	// internal (sudog refills, timer plumbing) without letting a
	// per-message allocation (1.0/round) through.
	if perRound > 0.2 {
		t.Errorf("net round trip allocates %.2f allocs/round at steady state, want ~0", perRound)
	}
}
