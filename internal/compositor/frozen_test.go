package compositor

// Frozen oracle for PR 24 (the leap_test.go pattern): DirectSendWith as it
// stood before it became SLICWith over fullSchedule — its own send, receive,
// composite and release loop over its own equal-strip partition — kept
// verbatim, and the new body held to its strips, Stats and per-rank message
// accounting at tolerance 0.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/render"
)

// frozenEqualStripsInto is equalStripsInto before PR 24, verbatim.
func frozenEqualStripsInto(out []Strip, h, n int) []Strip {
	out = out[:0]
	for i := 0; i < n; i++ {
		y0 := h * i / n
		y1 := h * (i + 1) / n
		out = append(out, Strip{Y0: y0, H: y1 - y0})
	}
	return out
}

// frozenDirectSendWith is DirectSendWith before PR 24, verbatim but for the
// strip partition's staging slice.
func frozenDirectSendWith(c *mpi.Comm, group []int, me int, frags []*render.Fragment,
	w, h, tagBase int, compress bool, scr *CompositeScratch) (*img.Image, Strip, Stats, error) {

	if scr == nil {
		scr = NewCompositeScratch()
	}
	n := len(group)
	strips := frozenEqualStripsInto(nil, h, n) // was scr.stripv, a field that went with the body
	var st Stats
	mine := scr.mine[:0]
	recvd := scr.recvd[:0]
	for j := 0; j < n; j++ {
		p := &scr.self
		if j != me {
			p = getPayload(&scr.payloads)
		} else {
			p.reset()
		}
		var bytes int64
		for _, f := range frags {
			bytes += clipFragmentInto(p, f, strips[j], compress)
		}
		if j == me {
			for i := range p.subs {
				mine = append(mine, &p.subs[i])
			}
			continue
		}
		c.Send(group[j], tagBase, bytes, p)
		st.MsgsSent++
		st.BytesSent += bytes
	}
	lost := 0
	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		msg, rerr := c.RecvErr(group[j], tagBase)
		if rerr != nil {
			if errors.Is(rerr, mpi.ErrPeerLost) {
				// A dead sender's pixels are simply absent: composite
				// what arrived and report the gap, so the frame loop can
				// degrade instead of dying (docs/faults.md).
				lost++
				continue
			}
			panic(rerr)
		}
		if p, ok := msg.Data.(*wirePayload); ok && p != nil {
			recvd = append(recvd, p)
			for i := range p.subs {
				mine = append(mine, &p.subs[i])
			}
		}
	}
	out := getStrip(&scr.strips, w, strips[me].H)
	err := compositeStripInto(out, w, strips[me], mine)
	for _, p := range recvd {
		p.Release()
	}
	scr.mine, scr.recvd = mine[:0], recvd[:0]
	if err == nil && lost > 0 {
		// The strip itself is valid (partial) output; callers that
		// tolerate rank loss match ErrPeerLost and keep it.
		err = fmt.Errorf("compositor: composited without %d lost peer(s): %w", lost, mpi.ErrPeerLost)
	}
	return out, strips[me], st, err
}

// directSend is the signature the frozen and the live body share.
type directSend func(c *mpi.Comm, group []int, me int, frags []*render.Fragment,
	w, h, tagBase int, compress bool, scr *CompositeScratch) (*img.Image, Strip, Stats, error)

// rankOutcome is everything one rank can observe of one exchange.
type rankOutcome struct {
	im        *img.Image
	strip     Strip
	stats     Stats
	lost      bool // the call returned an error matching mpi.ErrPeerLost
	msgsSent  int
	bytesSent int64
}

// sameOutcomes fails unless every rank saw the same strip, bit for bit, and
// the same accounting from both bodies.
func sameOutcomes(t *testing.T, name string, want, got []rankOutcome) {
	t.Helper()
	for r := range want {
		w, g := want[r], got[r]
		if (w.im == nil) != (g.im == nil) {
			t.Fatalf("%s rank %d: strip present %v, frozen %v", name, r, g.im != nil, w.im != nil)
		}
		if w.im == nil {
			continue // the killed rank
		}
		samePix(t, fmt.Sprintf("%s rank %d", name, r), w.im, g.im)
		if w.strip != g.strip || w.stats != g.stats || w.lost != g.lost ||
			w.msgsSent != g.msgsSent || w.bytesSent != g.bytesSent {
			g.im, w.im = nil, nil
			t.Fatalf("%s rank %d: %+v, frozen %+v", name, r, g, w)
		}
	}
}

// TestDirectSendMatchesFrozen: over group sizes 1, 2, 3, 4 and 7, raw and
// run-length, four frames per size through one persistent scratch per rank —
// the image height changes between frames and the group size between sizes
// while the height stays, so the cached schedule is reused, rebuilt for a
// new height and rebuilt for a new group — the schedule-driven body returns
// the frozen body's strip rows, pixels and Stats and leaves the frozen
// body's MsgsSent/BytesSent on every rank's communicator. The last frame
// gives every fragment the same visibility rank, so the order the pieces
// were received in decides the pixels.
//
// Mutation-checked: fullSchedule adding senders in descending order,
// skipping sender 0, cutting strips with h+1, and DirectSendWith keeping a
// cached schedule across a height change or across a group-size change each
// fail this test.
func TestDirectSendMatchesFrozen(t *testing.T) {
	const maxN, w = 7, 48
	for _, compress := range []bool{false, true} {
		var scrs [2][maxN]*CompositeScratch
		for v := range scrs {
			for i := range scrs[v] {
				scrs[v][i] = NewCompositeScratch()
			}
		}
		for _, n := range []int{1, 2, 3, 4, maxN} {
			group := make([]int, n)
			for i := range group {
				group[i] = i
			}
			for frame, h := range []int{36, 36, 41, 36} {
				all := buildRankFragments(n, w, h, 2+frame, int64(7*n+frame))
				if frame == 3 {
					for _, frags := range all {
						for _, f := range frags {
							f.VisRank = 0
						}
					}
				}
				var out [2][]rankOutcome
				for v, ds := range []directSend{frozenDirectSendWith, DirectSendWith} {
					out[v] = make([]rankOutcome, n)
					mpi.RunReal(n, func(c *mpi.Comm) {
						me := c.Rank()
						im, st, stats, err := ds(c, group, me, all[me], w, h, 100, compress, scrs[v][me])
						if err != nil {
							t.Error(err)
							return
						}
						out[v][me] = rankOutcome{im.Clone(), st, stats, false, c.MsgsSent, c.BytesSent}
						scrs[v][me].ReleaseStrip(im)
					})
				}
				sameOutcomes(t, fmt.Sprintf("n=%d compress=%v frame %d", n, compress, frame), out[0], out[1])
			}
		}
	}
}

// TestDirectSendLostPeerMatchesFrozen: over loopback TCP, rank 1 dies at its
// first send, so none of its pixels reach anybody. Both bodies must hand
// every survivor the same partial strip with an error matching
// mpi.ErrPeerLost, and the same Stats and per-rank accounting.
func TestDirectSendLostPeerMatchesFrozen(t *testing.T) {
	const n, w, h, killRank = 4, 40, 30, 1
	group := []int{0, 1, 2, 3}
	all := buildRankFragments(n, w, h, 3, 424)
	for _, compress := range []bool{false, true} {
		var out [2][]rankOutcome
		for v, ds := range []directSend{frozenDirectSendWith, DirectSendWith} {
			out[v] = make([]rankOutcome, n)
			tun := mpi.NetTuning{
				Heartbeat:         -1, // EOF-based detection
				PeerTimeout:       250 * time.Millisecond,
				ReconnectAttempts: 2,
				ReconnectWindow:   300 * time.Millisecond,
				Fault: faultinject.NewNetChaos(faultinject.NetChaosConfig{
					Kill: true, KillRank: killRank, KillAtSend: 0,
				}),
			}
			rep, err := mpi.RunNetErrs(n, tun, func(c *mpi.Comm) {
				me := c.Rank()
				im, st, stats, err := ds(c, group, me, all[me], w, h, 100, compress, nil)
				out[v][me] = rankOutcome{im, st, stats, errors.Is(err, mpi.ErrPeerLost), c.MsgsSent, c.BytesSent}
				if !out[v][me].lost {
					t.Errorf("survivor %d: error %v, want one matching ErrPeerLost", me, err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(rep.Errs[killRank], mpi.ErrRankKilled) {
				t.Fatalf("rank %d error = %v, want ErrRankKilled", killRank, rep.Errs[killRank])
			}
			if out[v][killRank].im != nil {
				t.Fatalf("rank %d returned a strip after being killed", killRank)
			}
		}
		sameOutcomes(t, fmt.Sprintf("lost peer compress=%v", compress), out[0], out[1])
	}
}
