package compositor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/render"
)

func randImage(rng *rand.Rand, w, h int, fill float64) *img.Image {
	m := img.New(w, h)
	for i := 0; i < w*h; i++ {
		if rng.Float64() > fill {
			continue // transparent pixel
		}
		a := rng.Float32()
		m.Pix[4*i] = a * rng.Float32()
		m.Pix[4*i+1] = a * rng.Float32()
		m.Pix[4*i+2] = a * rng.Float32()
		m.Pix[4*i+3] = a
	}
	return m
}

func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fill := range []float64{0, 0.1, 0.5, 1} {
		m := randImage(rng, 17, 9, fill)
		enc := EncodeRLEInto(nil, m)
		dec, err := DecodeRLE(enc, 17, 9)
		if err != nil {
			t.Fatal(err)
		}
		if img.RMSE(m, dec) != 0 {
			t.Fatalf("fill=%v: roundtrip not exact", fill)
		}
	}
}

func TestRLECompressesSparseImages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sparse := randImage(rng, 64, 64, 0.05)
	enc := EncodeRLEInto(nil, sparse)
	if int64(len(enc)) >= RawBytes(sparse)/2 {
		t.Errorf("sparse image compressed to %d of %d bytes", len(enc), RawBytes(sparse))
	}
}

func TestRLERejectsGarbage(t *testing.T) {
	if _, err := DecodeRLE([]byte{1, 2, 3}, 4, 4); err == nil {
		t.Error("truncated header accepted")
	}
	bad := make([]byte, 8)
	bad[0] = 200 // skip beyond image
	bad[4] = 10  // then a run
	if _, err := DecodeRLE(bad, 2, 2); err == nil {
		t.Error("overrun accepted")
	}
}

func TestRLEQuick(t *testing.T) {
	f := func(seed int64, w8, h8 uint8) bool {
		w := int(w8%16) + 1
		h := int(h8%16) + 1
		m := randImage(rand.New(rand.NewSource(seed)), w, h, 0.4)
		dec, err := DecodeRLE(EncodeRLEInto(nil, m), w, h)
		return err == nil && img.RMSE(m, dec) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEqualStrips(t *testing.T) {
	strips := equalStrips(100, 3)
	if len(strips) != 3 {
		t.Fatal("wrong strip count")
	}
	total := 0
	for _, s := range strips {
		total += s.H
	}
	if total != 100 || strips[0].Y0 != 0 {
		t.Errorf("strips = %v", strips)
	}
}

// buildRankFragments creates fragments for n ranks.
func buildRankFragments(n, w, h, blocksPerRank int, seed int64) [][]*render.Fragment {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*render.Fragment, n)
	vis := 0
	for r := 0; r < n; r++ {
		for b := 0; b < blocksPerRank; b++ {
			fw := 1 + rng.Intn(max(w/2, 1))
			fh := 1 + rng.Intn(max(h/2, 1))
			x0 := rng.Intn(max(w-fw, 1))
			y0 := rng.Intn(max(h-fh, 1))
			f := &render.Fragment{X0: x0, Y0: y0, VisRank: vis, Img: randImage(rng, fw, fh, 0.6)}
			vis++
			out[r] = append(out[r], f)
		}
	}
	return out
}

// serialReference composites all fragments with the shared reference path.
func serialReference(w, h int, all [][]*render.Fragment) *img.Image {
	var frags []*render.Fragment
	for _, fs := range all {
		frags = append(frags, fs...)
	}
	return render.CompositeFragments(w, h, frags)
}

func rectsOf(frags [][]*render.Fragment) [][]Rect {
	out := make([][]Rect, len(frags))
	for i, fs := range frags {
		for _, f := range fs {
			out[i] = append(out[i], Rect{X0: f.X0, Y0: f.Y0, X1: f.X0 + f.Img.W, Y1: f.Y0 + f.Img.H})
		}
	}
	return out
}

func TestDirectSendMatchesSerial(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 5} {
			w, h := 40, 32
			all := buildRankFragments(n, w, h, 3, 42)
			want := serialReference(w, h, all)
			group := make([]int, n)
			for i := range group {
				group[i] = i
			}
			strips := make([]*img.Image, n)
			sts := make([]Strip, n)
			mpi.RunReal(n, func(c *mpi.Comm) {
				im, st, _, err := DirectSendWith(c, group, c.Rank(), all[c.Rank()], w, h, 100, compress, nil)
				if err != nil {
					t.Error(err)
					return
				}
				strips[c.Rank()] = im
				sts[c.Rank()] = st
			})
			got := img.New(w, h)
			for i := range strips {
				copy(got.Pix[4*sts[i].Y0*w:4*(sts[i].Y0+sts[i].H)*w], strips[i].Pix)
			}
			if d := img.RMSE(want, got); d > 1e-6 {
				t.Errorf("n=%d compress=%v: direct send differs from serial, RMSE=%v", n, compress, d)
			}
		}
	}
}

func TestSLICMatchesSerial(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 6} {
			w, h := 48, 40
			all := buildRankFragments(n, w, h, 3, 7)
			want := serialReference(w, h, all)
			sched := BuildSchedule(rectsOf(all), w, h, n)
			group := make([]int, n)
			for i := range group {
				group[i] = i
			}
			strips := make([]*img.Image, n)
			sts := make([]Strip, n)
			mpi.RunReal(n, func(c *mpi.Comm) {
				im, st, _, err := SLICWith(c, group, c.Rank(), sched, all[c.Rank()], w, h, 100, compress, nil)
				if err != nil {
					t.Error(err)
					return
				}
				strips[c.Rank()] = im
				sts[c.Rank()] = st
			})
			got := img.New(w, h)
			for i := range strips {
				if sts[i].H > 0 {
					copy(got.Pix[4*sts[i].Y0*w:4*(sts[i].Y0+sts[i].H)*w], strips[i].Pix)
				}
			}
			if d := img.RMSE(want, got); d > 1e-6 {
				t.Errorf("n=%d compress=%v: SLIC differs from serial, RMSE=%v", n, compress, d)
			}
		}
	}
}

func TestSLICSendsFewerMessages(t *testing.T) {
	// Each rank's fragment occupies its own horizontal band: direct send
	// still posts n(n-1) messages, while the SLIC schedule only pairs ranks
	// whose pixels actually land in another rank's strip.
	n, w, h := 6, 60, 60
	rng := rand.New(rand.NewSource(9))
	all := make([][]*render.Fragment, n)
	for r := 0; r < n; r++ {
		f := &render.Fragment{X0: 0, Y0: r * 10, VisRank: r, Img: randImage(rng, 40, 8, 0.8)}
		all[r] = []*render.Fragment{f}
	}
	group := []int{0, 1, 2, 3, 4, 5}
	sched := BuildSchedule(rectsOf(all), w, h, n)
	var dsMsgs, slicMsgs int
	mpi.RunReal(n, func(c *mpi.Comm) {
		_, _, st, err := DirectSendWith(c, group, c.Rank(), all[c.Rank()], w, h, 100, false, nil)
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			dsMsgs = st.MsgsSent * n // all ranks symmetric here
		}
		_, _, st2, err := SLICWith(c, group, c.Rank(), sched, all[c.Rank()], w, h, 200, false, nil)
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			slicMsgs = st2.MsgsSent * n
		}
	})
	if slicMsgs >= dsMsgs {
		t.Errorf("SLIC msgs %d not fewer than direct send %d", slicMsgs, dsMsgs)
	}
}

func TestBinarySwapMatchesSerialForOrderedPartials(t *testing.T) {
	// Each rank holds one full-image partial; rank order = depth order.
	for _, n := range []int{2, 4, 8} {
		w, h := 32, 24
		rng := rand.New(rand.NewSource(11))
		partials := make([]*img.Image, n)
		for r := 0; r < n; r++ {
			partials[r] = randImage(rng, w, h, 0.5)
		}
		// Serial reference: front-to-back over in rank order.
		want := img.New(w, h)
		for r := 0; r < n; r++ {
			want.Under(partials[r])
		}
		group := make([]int, n)
		for i := range group {
			group[i] = i
		}
		strips := make([]*img.Image, n)
		sts := make([]Strip, n)
		mpi.RunReal(n, func(c *mpi.Comm) {
			im, st, _, err := BinarySwapWith(c, group, c.Rank(), partials[c.Rank()], w, h, 100, nil)
			if err != nil {
				t.Error(err)
				return
			}
			strips[c.Rank()] = im
			sts[c.Rank()] = st
		})
		got := img.New(w, h)
		for i := range strips {
			copy(got.Pix[4*sts[i].Y0*w:4*(sts[i].Y0+sts[i].H)*w], strips[i].Pix)
		}
		if d := img.RMSE(want, got); d > 1e-5 {
			t.Errorf("n=%d: binary swap differs from serial, RMSE=%v", n, d)
		}
	}
}

func TestBinarySwapRejectsNonPowerOfTwo(t *testing.T) {
	mpi.RunReal(3, func(c *mpi.Comm) {
		_, _, _, err := BinarySwapWith(c, []int{0, 1, 2}, c.Rank(), img.New(4, 4), 4, 4, 100, nil)
		if err == nil {
			t.Error("group of 3 accepted")
		}
	})
}

func TestCompressionReducesBytes(t *testing.T) {
	n, w, h := 4, 64, 64
	// Sparse fragments compress well.
	rng := rand.New(rand.NewSource(13))
	all := make([][]*render.Fragment, n)
	for r := 0; r < n; r++ {
		all[r] = []*render.Fragment{{X0: 0, Y0: 0, VisRank: r, Img: randImage(rng, w, h, 0.05)}}
	}
	group := []int{0, 1, 2, 3}
	var raw, comp int64
	mpi.RunReal(n, func(c *mpi.Comm) {
		_, _, st, _ := DirectSendWith(c, group, c.Rank(), all[c.Rank()], w, h, 100, false, nil)
		_, _, st2, _ := DirectSendWith(c, group, c.Rank(), all[c.Rank()], w, h, 200, true, nil)
		if c.Rank() == 0 {
			raw, comp = st.BytesSent, st2.BytesSent
		}
	})
	if comp >= raw/2 {
		t.Errorf("compression: %d of %d bytes", comp, raw)
	}
}

func TestScheduleStripsCoverImage(t *testing.T) {
	f := func(seed int64, n8, h8 uint8) bool {
		n := int(n8%7) + 1
		h := int(h8%100) + n
		all := buildRankFragments(n, 32, h, 2, seed)
		sched := BuildSchedule(rectsOf(all), 32, h, n)
		y := 0
		for _, s := range sched.Strips {
			if s.Y0 != y || s.H < 0 {
				return false
			}
			y += s.H
		}
		return y == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
