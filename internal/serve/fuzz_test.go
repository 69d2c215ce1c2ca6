package serve_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/serve"
)

// fuzzLimits mirrors a small dataset so both accept and reject paths are
// reachable from short inputs.
var fuzzLimits = serve.Limits{Steps: 8, MaxRange: 4}

// FuzzServeRequestParse drives raw client input through both request
// decoders (query string and JSON body, chosen by asJSON) and checks the
// parser's hard invariants: no panic on any input, rejects stay bounded
// (the decoders cap input length before doing any work), and every
// accepted request is internally consistent — in-range steps, legal
// dimensions, a known transfer function and format, and view parameters
// only in orbit mode. Seed corpus under testdata/fuzz covers each accept
// shape and the trickier reject rules.
func FuzzServeRequestParse(f *testing.F) {
	seeds := []struct {
		raw    string
		asJSON bool
	}{
		{"step=3", false},
		{"lo=2&hi=5&w=64&h=32&tf=hot&format=png", false},
		{"step=0&view=orbit&az=-30.5&el=55", false},
		{"step=0&step=1", false},
		{"step=0&az=NaN", false},
		{"%zz", false},
		{"step=0&" + strings.Repeat("a", 64), false},
		{`{"step": 0}`, true},
		{`{"lo": 1, "hi": 4, "width": 48, "view": "orbit", "az": 30, "el": 10, "tf": "gray"}`, true},
		{`{"step": 0, "zoom": 2}`, true},
		{`{"step": "0"}`, true},
		{`{"step": 0} {"step": 1}`, true},
	}
	for _, s := range seeds {
		f.Add(s.raw, s.asJSON)
	}
	f.Fuzz(func(t *testing.T, raw string, asJSON bool) {
		var req serve.Request
		var err error
		if asJSON {
			req, err = serve.ParseJSONBody([]byte(raw), fuzzLimits)
		} else {
			req, err = serve.ParseQuery(raw, fuzzLimits)
		}
		if err != nil {
			return
		}
		if req.Lo < 0 || req.Hi <= req.Lo || req.Hi > fuzzLimits.Steps {
			t.Fatalf("accepted out-of-range window [%d, %d) from %q", req.Lo, req.Hi, raw)
		}
		if req.Hi-req.Lo > fuzzLimits.MaxRange {
			t.Fatalf("accepted window [%d, %d) past MaxRange %d from %q", req.Lo, req.Hi, fuzzLimits.MaxRange, raw)
		}
		cfg := req.Cfg
		if cfg.Width < serve.MinFrameDim || cfg.Width > serve.MaxFrameDim ||
			cfg.Height < serve.MinFrameDim || cfg.Height > serve.MaxFrameDim {
			t.Fatalf("accepted out-of-bounds frame %dx%d from %q", cfg.Width, cfg.Height, raw)
		}
		if !cfg.Orbit && (cfg.Az != 0 || cfg.El != 0) {
			t.Fatalf("accepted view angles az=%g el=%g without orbit from %q", cfg.Az, cfg.El, raw)
		}
		if cfg.Orbit && (cfg.Az < -360 || cfg.Az > 360 || cfg.El < 0 || cfg.El > 90) {
			t.Fatalf("accepted out-of-range orbit az=%g el=%g from %q", cfg.Az, cfg.El, raw)
		}
		// NaN never survives: it would poison FrameKey equality in the cache.
		if cfg.Az != cfg.Az || cfg.El != cfg.El {
			t.Fatalf("accepted NaN view angle from %q", raw)
		}
		switch cfg.TF {
		case "", "seismic", "gray", "hot":
		default:
			t.Fatalf("accepted unknown transfer function %q from %q", cfg.TF, raw)
		}
		if req.Format != serve.FormatRaw && req.Format != serve.FormatPNG {
			t.Fatalf("accepted unknown format %q from %q", req.Format, raw)
		}
	})
}

// FuzzDecodeWireFrame drives arbitrary bytes through the wire decoder: it
// must never panic, and a frame it accepts lies within MaxFrameDim on
// each side and re-encodes to exactly the bytes it consumed (the flag
// word up to the bits the decoder reads), which holds AppendWireFrame's
// output to the format the decoder parses. The seeds are a valid frame,
// two of them back to back, the header whose width times height wraps,
// and a truncated payload.
func FuzzDecodeWireFrame(f *testing.F) {
	frame := mkFrame(3, 2, 0)
	for i := range frame.Pix {
		frame.Pix[i] = float32(i) * 0.125
	}
	one := serve.AppendWireFrame(nil, 4, frame, true)
	f.Add(one)
	f.Add(serve.AppendWireFrame(serve.AppendWireFrame(nil, 0, frame, false), 1, frame, true))
	f.Add(wrappingHeader())
	f.Add(one[:len(one)-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		step, got, degraded, rest, err := serve.DecodeWireFrame(b)
		if err != nil {
			return
		}
		if got.W <= 0 || got.H <= 0 || got.W > serve.MaxFrameDim || got.H > serve.MaxFrameDim {
			t.Fatalf("accepted a %dx%d frame", got.W, got.H)
		}
		consumed := append([]byte(nil), b[:len(b)-len(rest)]...)
		consumed[16] &= serve.WireFlagDegraded
		consumed[17], consumed[18], consumed[19] = 0, 0, 0
		if enc := serve.AppendWireFrame(nil, step, got, degraded); !bytes.Equal(enc, consumed) {
			t.Fatalf("decoded %dx%d frame re-encodes to %d bytes unlike the %d consumed", got.W, got.H, len(enc), len(consumed))
		}
	})
}
