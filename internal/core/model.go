package core

import (
	"math"

	"repro/internal/mpi"
)

// PaperScale holds the calibration constants for the paper-scale cost
// model, derived from the numbers reported in Section 6 for LeMieux:
//
//   - one timestep is 400 MB of raw node data (100M hexahedral cells);
//   - a single input processor needs Tf+Tp ~ 22 s to fetch and preprocess
//     a step (Figure 8), giving ~20 MB/s effective per-client read
//     bandwidth and ~2 s of preprocessing;
//   - one input processor ships a (quantized, 8-bit) step to the renderers
//     in Ts ~ 2 s (Figure 8 reaches the rendering time with 12 = 22/2 + 1
//     input processors, consistent with the Section 5.1 formula);
//   - 64 renderers take Tr ~ 2 s for a 512x512 frame and 128 take ~1 s
//     (Figures 8 and 9).
//
// We reproduce shapes and ratios, not absolute AlphaServer timings.
type PaperScale struct {
	StepBytes      float64 // raw bytes per timestep on disk
	Cells          int64   // hexahedral cells at full resolution
	MaxLevel       int     // octree depth of the full-resolution data
	PreSeconds     float64 // preprocessing (quantize, partition) per step
	RenderRate     float64 // cells/second per rendering processor
	LightingFactor float64 // render-cost multiplier with lighting
	LICSeconds     float64 // surface LIC cost for one step (512^2)
	CompositeBase  float64 // per-frame compositing compute
	QuantFactor    float64 // payload bytes per raw byte (8-bit/32-bit = 0.25)

	// Machine parameters for mpi.SimConfig.
	DiskClientBW float64
	DiskAggBW    float64
	NICOut       float64
	NICIn        float64
	Latency      float64
	SeekTime     float64
}

// LeMieuxScale returns the calibration used by all paper-figure benches.
func LeMieuxScale() PaperScale {
	return PaperScale{
		StepBytes:      400e6,
		Cells:          100e6,
		MaxLevel:       13,
		PreSeconds:     2.0,
		RenderRate:     0.78e6,
		LightingFactor: 4.0,
		LICSeconds:     8.0,
		CompositeBase:  0.08,
		QuantFactor:    0.25,
		DiskClientBW:   20e6,
		DiskAggBW:      1000e6,
		NICOut:         50e6,
		NICIn:          400e6,
		Latency:        20e-6,
		SeekTime:       50e-6,
	}
}

// SimConfig derives the machine description for mpi.RunSim.
func (p PaperScale) SimConfig() mpi.SimConfig {
	return mpi.SimConfig{
		OutBW: p.NICOut, InBW: p.NICIn, Latency: p.Latency,
		DiskClientBW: p.DiskClientBW, DiskAggBW: p.DiskAggBW, SeekTime: p.SeekTime,
	}
}

// LevelFraction estimates what fraction of the full-resolution *data* an
// adaptive level keeps. The paper's wavelength-adapted mesh concentrates
// cells at the finest levels, so truncating levels sheds bytes quickly:
// Section 6 reports that adaptive fetching at level 8 needs only 4 input
// processors instead of 12, implying the level-8 read volume is roughly a
// tenth of the full data. We model fraction = 2^(-0.66 (max-level)),
// which gives ~0.10 at five levels below the maximum.
func (p PaperScale) LevelFraction(level int) float64 {
	if level >= p.MaxLevel {
		return 1
	}
	d := float64(p.MaxLevel - level)
	f := math.Pow(2, -0.66*d)
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// RenderLevelFraction estimates the *render-cost* fraction at an adaptive
// level. Rendering cost shrinks more slowly than data volume (per-ray and
// per-pixel overheads remain): Figure 3 reports only a 3-4x speedup from
// level 13 to level 8, so we use the square root of the data fraction
// (~0.32 at five levels down).
func (p PaperScale) RenderLevelFraction(level int) float64 {
	return math.Sqrt(p.LevelFraction(level))
}

// ModelConfig configures one model-mode pipeline run.
type ModelConfig struct {
	Scale    PaperScale
	Steps    int
	Width    int
	Height   int
	Level    int // adaptive rendering/fetching level (MaxLevel = full)
	Light    bool
	LIC      bool
	Adaptive bool // adaptive fetching (read only the selected level)
	Compress bool

	// Prefetch sets the renderer buffer depth: 0 uses the paper's double
	// buffering (depth 1), -1 disables overlap (depth 0), n > 0 is depth n.
	Prefetch int
}

// ModelWorkload implements Workload with calibrated costs and no real data.
type ModelWorkload struct {
	layout Layout
	cfg    ModelConfig
}

// NewModelWorkload builds the cost-model workload.
func NewModelWorkload(l Layout, cfg ModelConfig) *ModelWorkload {
	if cfg.Level <= 0 || cfg.Level > cfg.Scale.MaxLevel {
		cfg.Level = cfg.Scale.MaxLevel
	}
	if cfg.Width <= 0 {
		cfg.Width = 512
	}
	if cfg.Height <= 0 {
		cfg.Height = 512
	}
	return &ModelWorkload{layout: l, cfg: cfg}
}

// frac is the data fraction kept by the configured adaptive level.
func (w *ModelWorkload) frac() float64 {
	return w.cfg.Scale.LevelFraction(w.cfg.Level)
}

// fetchBytes is the bytes this IP reads per step.
func (w *ModelWorkload) fetchBytes(m int) (bytes float64, seeks int) {
	total := w.cfg.Scale.StepBytes
	if w.cfg.Adaptive {
		total *= w.frac()
		// Adaptive fetching reads noncontiguously: charge a seek per block
		// region; data sieving keeps the request count moderate.
		seeks = 256 / m
		if seeks < 1 {
			seeks = 1
		}
	} else {
		seeks = 1
	}
	return total / float64(m), seeks
}

// payloadBytes is the per-renderer payload this IP ships per step.
func (w *ModelWorkload) payloadBytes(m int) float64 {
	total := w.cfg.Scale.StepBytes * w.cfg.Scale.QuantFactor * w.frac()
	return total / float64(m) / float64(w.layout.Renderers)
}

// renderSeconds is the per-step rendering compute on one renderer.
func (w *ModelWorkload) renderSeconds() float64 {
	cells := float64(w.cfg.Scale.Cells) * w.cfg.Scale.RenderLevelFraction(w.cfg.Level) / float64(w.layout.Renderers)
	tr := cells / w.cfg.Scale.RenderRate
	if w.cfg.Light {
		tr *= w.cfg.Scale.LightingFactor
	}
	// Smaller images trim per-pixel cost, bounded below by per-cell work.
	area := float64(w.cfg.Width*w.cfg.Height) / (512.0 * 512.0)
	if area < 1 {
		tr *= math.Max(0.5, area)
	}
	return tr
}

// Steps implements Workload.
func (w *ModelWorkload) Steps() int { return w.cfg.Steps }

// WantLIC implements Workload.
func (w *ModelWorkload) WantLIC() bool { return w.cfg.LIC }

// Fetch implements Workload.
func (w *ModelWorkload) Fetch(c *mpi.Comm, t, part, m int) (any, error) {
	bytes, seeks := w.fetchBytes(m)
	c.IORead(int64(bytes), seeks)
	return nil, nil
}

// Preprocess implements Workload.
func (w *ModelWorkload) Preprocess(c *mpi.Comm, t, part, m int, fetched any) (any, error) {
	c.Compute(w.cfg.Scale.PreSeconds * w.frac() / float64(m))
	return nil, nil
}

// PayloadFor implements Workload.
func (w *ModelWorkload) PayloadFor(c *mpi.Comm, t int, prep any, renderer int) (int64, any) {
	return int64(w.payloadBytes(w.layout.IPsPerGroup)), nil
}

// LICPayload implements Workload.
func (w *ModelWorkload) LICPayload(c *mpi.Comm, t int, prep any) (int64, any, error) {
	area := float64(w.cfg.Width*w.cfg.Height) / (512.0 * 512.0)
	c.Compute(w.cfg.Scale.LICSeconds * area)
	return int64(16 * w.cfg.Width * w.cfg.Height), nil, nil
}

// Render implements Workload.
func (w *ModelWorkload) Render(c *mpi.Comm, t, r int, pieces []mpi.Message) (any, error) {
	c.Compute(w.renderSeconds())
	return nil, nil
}

// Composite implements Workload: a constant compositing cost (the paper
// reports SLIC's cost as roughly constant) plus the strip payload; the
// reported 50% compression saving halves both.
func (w *ModelWorkload) Composite(c *mpi.Comm, t, r int, group []int, rendered any) (int64, any, error) {
	cost := w.cfg.Scale.CompositeBase
	stripBytes := float64(16*w.cfg.Width*w.cfg.Height) / float64(len(group))
	if w.cfg.Compress {
		cost /= 2
		stripBytes /= 2
	}
	c.Compute(cost)
	return int64(stripBytes), nil, nil
}

// Assemble implements Workload.
func (w *ModelWorkload) Assemble(c *mpi.Comm, t int, strips []mpi.Message, lic *mpi.Message) error {
	c.Compute(0.005)
	return nil
}

// RunModel executes a model-mode pipeline on the simulated machine and
// returns the measurements.
func RunModel(l Layout, cfg ModelConfig) (*Result, error) {
	w := NewModelWorkload(l, cfg)
	p, err := NewPipeline(l, w)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Prefetch < 0:
		p.PrefetchDepth = 0
	case cfg.Prefetch > 0:
		p.PrefetchDepth = cfg.Prefetch
	}
	_, err = p.RunSim(cfg.Scale.SimConfig())
	return p.Res, err
}
