package core

import "math"

// The analytic model of Sections 5.1 and 5.2. All times are seconds for one
// full timestep: Tf fetch, Tp preprocess, Ts send (one input processor
// shipping a complete step to all renderers), Tr render.

// OneDIPInputProcs returns the number of 1DIP input processors m needed to
// hide I/O and preprocessing: best performance when Tf + Tp = Ts(m-1),
// i.e. m = (Tf+Tp)/Ts + 1 (Section 5.1).
//
//repro:allow deadexport: paper §5, ROADMAP 2c
func OneDIPInputProcs(tf, tp, ts float64) int {
	if ts <= 0 {
		return 1
	}
	return int(math.Ceil((tf+tp)/ts)) + 1
}

// OneDIPInputProcsRelaxed is the variant that only keeps renderers busy
// (m = (Tf+Tp)/Tr + 1), valid when Ts < Tr.
//
//repro:allow deadexport: paper §5, ROADMAP 2c
func OneDIPInputProcsRelaxed(tf, tp, tr float64) int {
	if tr <= 0 {
		return 1
	}
	return int(math.Ceil((tf+tp)/tr)) + 1
}

// TwoDIPGroupSize returns the number m of input processors per 2DIP group
// needed to bring the per-step sending time Ts' = Ts/m at or below the
// rendering time: m >= Ts/Tr (Section 5.2).
//
//repro:allow deadexport: paper §5, ROADMAP 2c
func TwoDIPGroupSize(ts, tr float64) int {
	if tr <= 0 || ts <= 0 {
		return 1
	}
	m := int(math.Ceil(ts / tr))
	if m < 1 {
		m = 1
	}
	return m
}

// TwoDIPGroups returns the number of groups n so consecutive steps stream
// seamlessly: n = (Tf' + Tp')/Ts' + 1 with Tf' = Tf/m etc., which reduces
// to n = (Tf+Tp)/Ts + 1 — the same form as 1DIP (Section 5.2).
//
//repro:allow deadexport: paper §5, ROADMAP 2c
func TwoDIPGroups(tf, tp, ts float64) int {
	if ts <= 0 {
		return 1
	}
	return int(math.Ceil((tf+tp)/ts)) + 1
}

// Use1DIP reports whether the 1DIP strategy suffices: 1DIP works until Ts
// exceeds Tr (Section 5.2's summary).
//
//repro:allow deadexport: paper §5, ROADMAP 2c
func Use1DIP(ts, tr float64) bool { return tr >= ts }

// PredictInterframe estimates the steady-state interframe delay for a
// configuration: the pipeline is limited by the rendering time, the
// (possibly split) per-step delivery time, and the aggregate input cycle
// spread over all groups.
func PredictInterframe(tf, tp, ts, tr float64, groups, ipsPerGroup int) float64 {
	m := float64(ipsPerGroup)
	g := float64(groups)
	perStepSend := ts / m
	cycle := (tf + tp + ts) / m
	return math.Max(tr, math.Max(perStepSend, cycle/g))
}
