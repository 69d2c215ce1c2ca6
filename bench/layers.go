package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/render"
	"repro/internal/serve"
)

// layerMetrics is every per-layer metric with its unit. A traced run
// reports all of them; one that the workload does not exercise (a serve
// latency on a batch run, a probe listed under another workload) reports
// 0. bench/README.md says where each comes from and what it should move.
var layerMetrics = [][2]string{
	{"core.fetch_ms", "ms"}, {"core.fetch_self_ms", "ms"}, {"core.payload_ms", "ms"},
	{"core.send_ms", "ms"}, {"core.credit_wait_ms", "ms"}, {"core.render_ms", "ms"},
	{"core.composite_ms", "ms"}, {"core.lic_ms", "ms"}, {"core.assemble_ms", "ms"},
	{"core.renderer_idle_ratio", "ratio"}, {"core.render_imbalance", "ratio"},
	{"core.workload_build_ms", "ms"}, {"core.allocs_per_frame", "count"}, {"core.alloc_bytes_per_frame", "B"},
	{"pfs.reads_per_frame", "count"}, {"pfs.bytes_per_frame", "B"}, {"pfs.read_ms", "ms"}, {"pfs.errors", "count"},
	{"mpiio.collective_round_us", "us"}, {"mpiio.indep_read_us", "us"}, {"mpiio.allocs_per_round", "count"},
	{"mpiio.sieve_useful_ratio", "ratio"}, {"mpiio.shuffle_bytes_per_round", "B"},
	{"quake.decode_mb_per_s", "MB/s"}, {"render.quantize_mb_per_s", "MB/s"},
	{"quake.solver_step_us", "us"}, {"quake.dataset_build_s", "s"},
	{"render.frame_ms", "ms"}, {"render.extract_us_per_block", "us"}, {"render.allocs_per_frame", "count"},
	{"compositor.slic_raw_ms", "ms"}, {"compositor.slic_rle_ms", "ms"}, {"compositor.directsend_ms", "ms"},
	{"compositor.bytes_per_frame", "B"}, {"compositor.msgs_per_frame", "count"}, {"compositor.rle_ratio", "ratio"},
	{"lic.step_ms", "ms"},
	{"mpi.msgs_per_frame", "count"}, {"mpi.bytes_per_frame", "B"},
	{"mpi.net_roundtrip_us", "us"}, {"mpi.net_bootstrap_ms", "ms"},
	{"mpi.net_reconnects", "count"}, {"mpi.net_frames_resent", "count"},
	{"mpi.net_heartbeats", "count"}, {"mpi.net_msgs_dropped", "count"},
	{"serve.hit_ms_p50", "ms"}, {"serve.miss_ms_p50", "ms"}, {"serve.newview_ms_p50", "ms"}, {"serve.request_ms_p99", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_evictions", "count"}, {"serve.cold_sessions", "count"},
	{"serve.rendered_frames", "count"}, {"serve.shed", "count"},
	{"serve.cached_into_us", "us"}, {"serve.wire_encode_us", "us"}, {"serve.response_bytes", "B"},
	{"serve.engine_build_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// newLayerSet returns every per-layer metric at 0.
func newLayerSet() metricSet {
	m := metricSet{}
	for _, nu := range layerMetrics {
		m.put(nu[0], nu[1], 0)
	}
	return m
}

// runBatchTraced runs a batch workload twice over, pass by pass in turn:
// once plain, once behind the tracing decorators. The traced passes give
// the spans, the plain ones the allocation counts and the speed the
// decorators are compared against. Both sides get a quarter of the
// untraced run's length.
func runBatchTraced(cfg runConfig) outcome {
	out := outcome{metrics: newLayerSet()}
	bs := setupBatch(cfg, &out)
	plain := bs.sys
	defer plain.close()
	traced, err := newBatchSystem(cfg, bs.store, bs.info.Steps, true)
	if err != nil {
		fatalf("constructing traced workload: %v", err)
	}
	defer traced.close()
	rec := traced.rec
	warm := traced.pass(nil)
	out.check(warm.sum == bs.warm.sum, "traced warm-up checksum %#x differs from the untraced %#x", warm.sum, bs.warm.sum)

	var plainFPS, tracedFPS, walls []float64
	var tr passResult // sums over the traced passes
	var imbalance []float64
	var inSec, credit float64
	var allocs, allocBytes uint64
	frames := 0
	const minPasses = 2
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for n := 0; n < minPasses || (!cfg.smoke && time.Now().Before(deadline)); n++ {
		var pp, tp passResult
		runPlain := func() {
			a0, b0 := mallocs()
			pp = plain.pass(nil)
			a1, b1 := mallocs()
			allocs += a1 - a0
			allocBytes += b1 - b0
		}
		runTraced := func() {
			rec.pass.Store(int32(n))
			tp = traced.pass(nil)
			rec.pass.Store(-1)
		}
		// Who goes first alternates, so that a trend across passes (the
		// heap still growing, the machine's speed drifting) favours
		// neither side.
		if n%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		plainFPS = append(plainFPS, float64(plain.steps)/pp.wall)
		tracedFPS = append(tracedFPS, float64(traced.steps)/tp.wall)
		walls = append(walls, tp.wall)
		frames += traced.steps
		out.attempted += 2 * traced.steps
		if pp.sum != bs.warm.sum || tp.sum != bs.warm.sum {
			out.failed += 2 * traced.steps
			out.problems = append(out.problems, fmt.Sprintf("pass %d: plain checksum %#x, traced %#x, warm-up %#x", n, pp.sum, tp.sum, bs.warm.sum))
		}
		tr.msgs += tp.msgs
		tr.bytes += tp.bytes
		addNetStats(&tr.net, tp.net)
		imbalance = append(imbalance, tp.res.RenderImbalance())
		inSec += tp.res.SendSec
		credit += tp.res.WaitCredit
	}

	// Stage time per frame, summed over the ranks that run the stage.
	var stageNS [numStages]int64
	perRankPass := make([][]int64, len(rec.ranks)) // [rank][pass] ns inside stage spans
	for r := range rec.ranks {
		perRankPass[r] = make([]int64, len(walls))
		for _, sp := range rec.ranks[r].spans {
			if sp.pass < 0 {
				continue
			}
			stageNS[sp.stage] += sp.dur
			perRankPass[r][sp.pass] += sp.dur
		}
	}
	for in := range rec.payload {
		for rd := range rec.payload[in] {
			for _, sp := range rec.payload[in][rd].spans {
				if sp.pass >= 0 {
					stageNS[stPayload] += sp.dur
				}
			}
		}
	}
	reads, readBytes, storeNS := rec.storeTotals()
	inStage := rec.storeSelfSplit()
	// The spans must reconcile with the clock: the stage spans of one
	// rank in one pass lie inside that pass.
	for r := range perRankPass {
		for p, ns := range perRankPass[r] {
			out.check(float64(ns)/1e9 <= walls[p], "rank %d pass %d: %.3f s of stage spans in a pass of %.3f s", r, p, float64(ns)/1e9, walls[p])
		}
	}

	f := float64(frames)
	perFrameMS := func(ns int64) float64 { return float64(ns) / 1e6 / f }
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	m := out.metrics
	m.put("core.fetch_ms", "ms", perFrameMS(stageNS[stFetch]))
	m.put("core.fetch_self_ms", "ms", perFrameMS(stageNS[stFetch]-inStage[stFetch]))
	m.put("core.payload_ms", "ms", perFrameMS(stageNS[stPayload]))
	m.put("core.send_ms", "ms", 1e3*inSec/f)
	m.put("core.credit_wait_ms", "ms", 1e3*credit/f)
	m.put("core.render_ms", "ms", perFrameMS(stageNS[stRender]))
	m.put("core.composite_ms", "ms", perFrameMS(stageNS[stComposite]))
	m.put("core.lic_ms", "ms", perFrameMS(stageNS[stLIC]))
	m.put("core.assemble_ms", "ms", perFrameMS(stageNS[stAssemble]))
	m.put("core.renderer_idle_ratio", "ratio",
		1-float64(stageNS[stRender]+stageNS[stComposite])/1e9/(float64(traced.layout.Renderers)*wallSum))
	m.put("core.render_imbalance", "ratio", median(imbalance))
	m.put("core.workload_build_ms", "ms", 1e3*plain.buildS)
	m.put("core.allocs_per_frame", "count", float64(allocs)/f)
	m.put("core.alloc_bytes_per_frame", "B", float64(allocBytes)/f)
	m.put("pfs.reads_per_frame", "count", float64(reads)/f)
	m.put("pfs.bytes_per_frame", "B", float64(readBytes)/f)
	m.put("pfs.read_ms", "ms", perFrameMS(storeNS))
	m.put("pfs.errors", "count", float64(traced.store.errors.Load()))
	m.put("mpi.msgs_per_frame", "count", float64(tr.msgs)/f)
	m.put("mpi.bytes_per_frame", "B", float64(tr.bytes)/f)
	m.put("mpi.net_reconnects", "count", float64(tr.net.Reconnects))
	m.put("mpi.net_frames_resent", "count", float64(tr.net.FramesResent))
	m.put("mpi.net_heartbeats", "count", float64(tr.net.HeartbeatsSent))
	m.put("mpi.net_msgs_dropped", "count", float64(tr.net.MessagesDropped))
	m.put("quake.dataset_build_s", "s", bs.genS)
	m.put("trace.overhead_ratio", "ratio", (median(plainFPS)-median(tracedFPS))/median(plainFPS))

	if cfg.spec.Batch.Transport == "net" {
		ref := checkAgainstReal(cfg, bs, &out)
		out.check(ref.msgs*len(walls) == tr.msgs && ref.bytes*int64(len(walls)) == tr.bytes,
			"traced network passes sent %d messages / %d bytes over %d passes, one mpi.RunReal pass %d / %d",
			tr.msgs, tr.bytes, len(walls), ref.msgs, ref.bytes)
	}

	l := traced.layout
	writeTrace(cfg, rec, func(rank int) string { return fmt.Sprintf("rank %d (%s)", rank, l.RoleOf(rank)) })
	o := traced.opts
	env := newProbeEnv(cfg, bs.store, bs.info.Steps, plain.w.VMax(), probeOpts{w: o.Width, h: o.Height, view: o.View,
		lighting: o.Lighting, level: o.Level, licSize: max(o.LICSize, 16), renderers: l.Renderers, world: l.WorldSize()})
	for _, name := range cfg.spec.Probes {
		probes[name](env, m)
	}
	fmt.Fprintf(os.Stderr, "quakebench: %s: %d traced and %d plain passes of %d frames, %d spans\n",
		cfg.spec.Name, len(walls), len(plainFPS), traced.steps, countSpans(rec))
	return out
}

func countSpans(rec *recorder) int {
	n := len(rec.store)
	for i := range rec.ranks {
		n += len(rec.ranks[i].spans)
	}
	for i := range rec.payload {
		for j := range rec.payload[i] {
			n += len(rec.payload[i][j].spans)
		}
	}
	return n
}

// writeTrace writes the run's spans where `-trace 1` promises them.
func writeTrace(cfg runConfig, rec *recorder, laneName func(int) string) {
	path := filepath.Join(cfg.workDir, "trace", cfg.spec.Name+".json")
	if err := rec.writeChromeTrace(path, laneName); err != nil {
		fatalf("writing trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "quakebench: trace written to %s\n", filepath.Clean(path))
}

// runServeTraced loads a plain system, then one whose engine reads
// through tracedStore and whose viewers record a span per request, each
// for a quarter of the untraced run's length.
func runServeTraced(cfg runConfig) outcome {
	out := outcome{metrics: newLayerSet()}
	requests := 0
	if cfg.smoke {
		requests = smokeRequests
	}
	plain := setupServe(cfg, &out, nil)
	defer plain.sys.close()
	sv := cfg.spec.Serve
	rec := newRecorder(sv.Viewers, 0, 0)
	ts := &tracedStore{inner: plain.store, rec: rec}
	tsys, err := newServeSystem(ts)
	if err != nil {
		fatalf("constructing traced server: %v", err)
	}
	defer tsys.close()
	ss := plain
	ss.sys, ss.store = tsys, ts
	ss.plan.warm(tsys, &out)

	// The two systems take turns under load, window by window, so that a
	// drift in the machine's speed lands on both.
	const windows = 4
	var pl, lr loadResult
	for w := 0; w < windows; w++ {
		seed := cfg.seed*windows + int64(w) // the explore plan must not revisit a view
		pl.merge(plain.plan.load(plain.sys, seed, cfg.seconds/(4*windows), requests, nil))
		rec.pass.Store(int32(w))
		win := ss.plan.load(tsys, seed, cfg.seconds/(4*windows), requests, rec)
		rec.pass.Store(-1)
		lr.merge(win)
		lr.last = win.last // earlier windows' views may have left the cache
	}
	pl.fold(&out)
	lr.fold(&out)
	ss.plan.recheck(ss, lr, &out)

	m := out.metrics
	m.put("serve.hit_ms_p50", "ms", median(lr.lat[classHit]))
	m.put("serve.miss_ms_p50", "ms", median(lr.lat[classMiss]))
	m.put("serve.newview_ms_p50", "ms", median(lr.lat[classNewView]))
	m.put("serve.request_ms_p99", "ms", percentile(lr.all(), 99))
	st, err := statsz(tsys.base)
	if err != nil {
		fatalf("%v", err)
	}
	m.put("serve.cache_hit_ratio", "ratio", st.CacheHitRate)
	m.put("serve.cache_evictions", "count", float64(st.Cache.Evictions))
	m.put("serve.cold_sessions", "count", float64(ss.sys.eng.ColdSessions()))
	m.put("serve.rendered_frames", "count", float64(ss.sys.eng.RenderedFrames()))
	m.put("serve.shed", "count", float64(st.Shed))
	m.put("serve.engine_build_ms", "ms", 1e3*ss.sys.engineS)
	m.put("quake.dataset_build_s", "s", ss.genS)
	m.put("pfs.errors", "count", float64(ts.errors.Load()))
	reads, readBytes, storeNS := rec.storeTotals()
	f := float64(max(lr.ok, 1))
	m.put("pfs.reads_per_frame", "count", float64(reads)/f)
	m.put("pfs.bytes_per_frame", "B", float64(readBytes)/f)
	m.put("pfs.read_ms", "ms", float64(storeNS)/1e6/f)
	plainRate, tracedRate := float64(pl.ok)/pl.elapsed, float64(lr.ok)/lr.elapsed
	m.put("trace.overhead_ratio", "ratio", (plainRate-tracedRate)/plainRate)

	// What a camera move pays before its first frame: one session's
	// workload, built the way the engine builds it.
	view := ss.plan.view(123.456)
	o := core.DefaultOptions(view.Width, view.Height)
	o.View = render.OrbitView(view.Width, view.Height, view.Az, view.El)
	o.FixedVMax = ss.sys.eng.VMax()
	t0 := time.Now()
	w, err := core.NewRealWorkload(core.Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}, o, ss.store)
	if err != nil {
		fatalf("probe workload build: %v", err)
	}
	m.put("core.workload_build_ms", "ms", 1e3*time.Since(t0).Seconds())
	w.Close()

	if len(lr.last) > 0 && len(lr.last[0].body) > 0 {
		last := lr.last[0].req
		// The warm path's two halves on a frame the cache holds: the copy
		// out of the cache and the wire encode.
		var dst img.Image
		m.put("serve.cached_into_us", "us", 1e6*medianSeconds(200, func() {
			if !ss.sys.eng.CachedInto(last.cfg, last.step, &dst) {
				fatalf("probe: step %d az %g is not cached", last.step, last.cfg.Az)
			}
		}))
		var buf []byte
		m.put("serve.wire_encode_us", "us", 1e6*medianSeconds(200, func() {
			buf = serve.EncodeWireFrameInto(buf, last.step, &dst, false)
		}))
		m.put("serve.response_bytes", "B", float64(len(buf)))
	}
	writeTrace(cfg, rec, func(v int) string { return fmt.Sprintf("viewer %d", v) })
	fmt.Fprintf(os.Stderr, "quakebench: %s: %d plain and %d traced responses, %d spans\n",
		cfg.spec.Name, pl.ok, lr.ok, countSpans(rec))
	return out
}
