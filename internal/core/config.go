// Package core implements the paper's parallel visualization pipeline: the
// input / rendering / output processor partitioning, the 1DIP and 2DIP
// parallel I/O strategies with credit-based double buffering, static load
// balancing of octree blocks by workload estimate, adaptive fetching and
// rendering, and the analytic model of Section 5 that predicts how many
// input processors hide the I/O and preprocessing cost.
package core

import (
	"fmt"

	"repro/internal/render"
	"repro/internal/workers"
)

// ReadStrategy selects how a group's input processors read a timestep
// (Section 5.3).
type ReadStrategy int

const (
	// ReadCollective is the single collective noncontiguous read
	// (MPI_FILE_READ_ALL over an indexed-block view).
	ReadCollective ReadStrategy = iota
	// ReadIndependent is the independent contiguous read with a merging
	// pass on the rendering processors (Section 5.3.2).
	ReadIndependent
)

// String names the strategy for experiment tables and logs.
func (s ReadStrategy) String() string {
	switch s {
	case ReadCollective:
		return "collective"
	case ReadIndependent:
		return "independent"
	}
	return "unknown"
}

// CompositorKind selects the sort-last compositing algorithm.
type CompositorKind int

const (
	// CompositeSLIC is the paper's scheduled SLIC compositor.
	CompositeSLIC CompositorKind = iota
	// CompositeDirectSend is the unscheduled direct-send baseline.
	CompositeDirectSend
)

// String names the compositor for experiment tables and logs.
func (k CompositorKind) String() string {
	if k == CompositeSLIC {
		return "slic"
	}
	return "directsend"
}

// Layout is the processor partitioning: Groups*IPsPerGroup input
// processors, then Renderers rendering processors, then Outputs output
// processors. 1DIP is Groups=m, IPsPerGroup=1; 2DIP is Groups=n,
// IPsPerGroup=m.
type Layout struct {
	Groups      int
	IPsPerGroup int
	Renderers   int
	Outputs     int
}

// Validate rejects impossible layouts.
func (l Layout) Validate() error {
	if l.Groups < 1 || l.IPsPerGroup < 1 || l.Renderers < 1 || l.Outputs < 1 {
		return fmt.Errorf("core: layout needs at least one of each role: %+v", l)
	}
	return nil
}

// NumInput returns the input processor count.
func (l Layout) NumInput() int { return l.Groups * l.IPsPerGroup }

// WorldSize returns the total rank count.
func (l Layout) WorldSize() int { return l.NumInput() + l.Renderers + l.Outputs }

// InputRank returns the world rank of input processor (group g, part p).
func (l Layout) InputRank(g, p int) int { return g*l.IPsPerGroup + p }

// RenderRank returns the world rank of renderer r.
func (l Layout) RenderRank(r int) int { return l.NumInput() + r }

// OutputRank returns the world rank handling timestep t's frame.
func (l Layout) OutputRank(t int) int { return l.NumInput() + l.Renderers + t%l.Outputs }

// RoleOf describes what a world rank does.
func (l Layout) RoleOf(rank int) string {
	switch {
	case rank < l.NumInput():
		return "input"
	case rank < l.NumInput()+l.Renderers:
		return "render"
	default:
		return "output"
	}
}

// GroupRanks returns the world ranks of group g's input processors.
func (l Layout) GroupRanks(g int) []int {
	out := make([]int, l.IPsPerGroup)
	for p := range out {
		out[p] = l.InputRank(g, p)
	}
	return out
}

// RenderRanks returns the world ranks of all renderers.
func (l Layout) RenderRanks() []int {
	out := make([]int, l.Renderers)
	for r := range out {
		out[r] = l.RenderRank(r)
	}
	return out
}

// renderWidth is a renderer rank's render and composite fan-out width.
// Every rank of a layout runs in one process under the in-process
// transports, so the ranks of a role split GOMAXPROCS between them
// (workers.Width): here the renderers. Frames are bit-identical at every
// width.
func (l Layout) renderWidth() int { return workers.Width(l.Renderers) }

// newPool returns the persistent worker pool a fan-out of the given width
// dispatches on, or nil at width 1, which workers.Pool.Run executes inline
// on the rank's goroutine.
func newPool(width int) *workers.Pool {
	if width <= 1 {
		return nil
	}
	return workers.New(width)
}

// DefaultStepRetries is the per-step re-read budget a fault-tolerant input
// rank spends before falling back to stale data (FaultPolicy.StepRetries 0).
const DefaultStepRetries = 2

// FaultPolicy is the pipeline's fault-tolerance configuration
// (docs/faults.md). The zero value keeps the historical behavior: any read
// or decode error aborts the run.
type FaultPolicy struct {
	// Tolerate enables degraded-mode operation: an input rank whose step
	// read exhausts its retry budget serves the previous step's data for
	// its share (stale-data fallback), marks the frame degraded, and the
	// run keeps going instead of aborting. Retry/degrade events are
	// accounted on the run's Result (Retries, FaultEvents, StaleSteps,
	// DegradedFrames).
	Tolerate bool

	// StepRetries is the per-step re-read budget an input rank spends on
	// retryable errors (transient faults retry as-is; corrupt records get
	// re-read for clean bytes) before degrading. 0 means
	// DefaultStepRetries; negative disables step-level retry (degrade on
	// the first failure). Collective reads never retry at this level — a
	// completed collective cannot be re-entered by one rank (see
	// mpiio.ReadAllInto); transient faults there are healed below MPI-IO
	// (pfs.RetryStore) and anything that still surfaces degrades directly.
	StepRetries int
}

// stepRetries returns the effective per-step re-read budget.
func (p FaultPolicy) stepRetries() int {
	switch {
	case p.StepRetries > 0:
		return p.StepRetries
	case p.StepRetries < 0:
		return 0
	}
	return DefaultStepRetries
}

// Options are the visualization options shared by both execution modes.
type Options struct {
	Width, Height int
	View          render.View
	Level         uint8 // adaptive rendering level (cells coarser than leaves)
	BlockLevel    uint8 // octree distribution granularity
	Lighting      bool
	Enhancement   bool
	EnhanceGain   float32
	LIC           bool
	LICSize       int
	AdaptiveFetch bool
	ReadStrategy  ReadStrategy
	Compositor    CompositorKind
	Compress      bool
	MaxSteps      int // 0 = all dataset steps

	// FixedVMax, when positive, sets the quantization range directly
	// instead of scanning the dataset at startup. Required for
	// simulation-time visualization, where future steps do not exist yet.
	FixedVMax float32

	// TFName selects the transfer-function preset ("seismic", "gray",
	// "hot"); empty uses the seismic default.
	TFName string

	// Faults is the fault-tolerance policy (docs/faults.md). The zero
	// value aborts the run on the first unrecovered read error.
	Faults FaultPolicy
}

// DefaultOptions returns the options used by the examples.
func DefaultOptions(w, h int) Options {
	return Options{
		Width: w, Height: h,
		View:         render.DefaultView(w, h),
		Level:        255, // full resolution (clamped to mesh depth)
		BlockLevel:   2,
		EnhanceGain:  4,
		LICSize:      128,
		ReadStrategy: ReadIndependent,
		Compositor:   CompositeSLIC,
	}
}
