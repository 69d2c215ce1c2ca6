package serve_test

import (
	"strings"
	"testing"

	"repro/internal/img"
	"repro/internal/serve"
)

var testLimits = serve.Limits{Steps: 8, MaxRange: 4}

// TestParseQuery pins the strict query decoder: accepted shapes produce
// the exact Request, and each reject rule fires.
func TestParseQuery(t *testing.T) {
	good := []struct {
		raw  string
		want serve.Request
	}{
		{"step=3", serve.Request{
			Cfg: serve.RenderConfig{Width: 256, Height: 256},
			Lo:  3, Hi: 4, Format: serve.FormatRaw}},
		{"lo=2&hi=5&w=64&h=32&tf=hot&format=png", serve.Request{
			Cfg: serve.RenderConfig{Width: 64, Height: 32, TF: "hot"},
			Lo:  2, Hi: 5, Format: serve.FormatPNG}},
		{"step=0&view=orbit&az=-30.5&el=55", serve.Request{
			Cfg: serve.RenderConfig{Width: 256, Height: 256, Orbit: true, Az: -30.5, El: 55},
			Lo:  0, Hi: 1, Format: serve.FormatRaw}},
		{"step=0&view=default&tf=seismic", serve.Request{
			Cfg: serve.RenderConfig{Width: 256, Height: 256, TF: "seismic"},
			Lo:  0, Hi: 1, Format: serve.FormatRaw}},
	}
	for _, tc := range good {
		got, err := serve.ParseQuery(tc.raw, testLimits)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tc.raw, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
	bad := []string{
		"",                 // no step
		"step=8",           // past dataset
		"step=-1",          // negative
		"step=2&lo=1&hi=3", // step and range
		"lo=2",             // lo without hi
		"lo=3&hi=3",        // empty range
		"lo=0&hi=5",        // past MaxRange
		"step=0&w=7",       // below MinFrameDim
		"step=0&h=2049",    // above MaxFrameDim
		"step=0&az=10",     // az without orbit
		"step=0&view=orbit&az=361",
		"step=0&view=orbit&el=-1",
		"step=0&view=orbit&az=NaN",
		"step=0&view=orbit&az=Inf",
		"step=0&view=fisheye",
		"step=0&tf=neon",
		"step=0&format=jpeg",
		"step=0&step=1", // repeated key
		"step=0&x=1",    // unknown key
		"step=0&w=1e3",  // non-integer int
		"step=;",        // unparsable int
		"%zz",           // bad escaping
		"step=0&" + strings.Repeat("a", serve.MaxRawRequestLen), // oversized
	}
	for _, raw := range bad {
		if _, err := serve.ParseQuery(raw, testLimits); err == nil {
			t.Errorf("ParseQuery(%q) accepted", raw)
		}
	}
}

// TestParseJSONBody pins the JSON decoder: same validation rules as the
// query path, plus JSON-specific strictness.
func TestParseJSONBody(t *testing.T) {
	got, err := serve.ParseJSONBody([]byte(`{"lo": 1, "hi": 4, "width": 48, "view": "orbit", "az": 30, "el": 10, "tf": "gray"}`), testLimits)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Request{
		Cfg: serve.RenderConfig{Width: 48, Height: 256, Orbit: true, Az: 30, El: 10, TF: "gray"},
		Lo:  1, Hi: 4, Format: serve.FormatRaw,
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	bad := []string{
		``,
		`{}`,
		`{"step": 0, "zoom": 2}`,  // unknown field
		`{"step": 0} {"step": 1}`, // trailing JSON
		`{"step": "0"}`,           // wrong type
		`[0]`,                     // wrong shape
		`{"step": 0, "az": 4}`,    // az without orbit
	}
	for _, raw := range bad {
		if _, err := serve.ParseJSONBody([]byte(raw), testLimits); err == nil {
			t.Errorf("ParseJSONBody(%q) accepted", raw)
		}
	}
}

// TestConfigHashesStable pins that the display hashes separate what they
// must: different views and different TFs hash differently, and the hash
// of a config is deterministic.
func TestConfigHashesStable(t *testing.T) {
	a := serve.RenderConfig{Width: 64, Height: 64}
	b := serve.RenderConfig{Width: 64, Height: 64, Orbit: true, Az: 10, El: 20}
	if a.ViewHash() == b.ViewHash() {
		t.Error("distinct views share a view hash")
	}
	if a.ViewHash() != a.ViewHash() {
		t.Error("view hash not deterministic")
	}
	c, d := a, a
	c.TF, d.TF = "hot", "gray"
	if c.TFHash() == d.TFHash() {
		t.Error("distinct TFs share a TF hash")
	}
}

// TestWireFrameRoundTrip pins the wire codec: encode/decode round-trips
// pixels, step and the degraded flag exactly, and corrupt inputs error
// without over-allocating — a header whose width times height wraps
// included.
func TestWireFrameRoundTrip(t *testing.T) {
	frame := mkFrame(5, 3, 0)
	for i := range frame.Pix {
		frame.Pix[i] = float32(i) * 0.25
	}
	for _, degraded := range []bool{false, true} {
		b := serve.AppendWireFrame(nil, 7, frame, degraded)
		if len(b) != serve.WireHeaderSize+4*len(frame.Pix) {
			t.Fatalf("encoded %d bytes", len(b))
		}
		step, got, deg, rest, err := serve.DecodeWireFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if step != 7 || deg != degraded || len(rest) != 0 {
			t.Fatalf("decoded step=%d degraded=%v rest=%d", step, deg, len(rest))
		}
		if d := img.MaxAbsDiff(frame, got); d != 0 {
			t.Errorf("pixels differ after round trip (max diff %v)", d)
		}
	}

	two := serve.AppendWireFrame(serve.AppendWireFrame(nil, 0, frame, false), 1, frame, true)
	_, _, _, rest, err := serve.DecodeWireFrame(two)
	if err != nil {
		t.Fatal(err)
	}
	step, _, deg, rest, err := serve.DecodeWireFrame(rest)
	if err != nil || step != 1 || !deg || len(rest) != 0 {
		t.Fatalf("second concatenated frame: step=%d deg=%v rest=%d err=%v", step, deg, len(rest), err)
	}

	bad := [][]byte{
		nil,
		[]byte("QSF1"), // short header
		[]byte("NOPE\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), // bad magic
		serve.AppendWireFrame(nil, 0, frame, false)[:serve.WireHeaderSize+3],           // truncated payload
	}
	// A header promising a huge frame must be rejected by the size bound,
	// not attempted.
	huge := serve.AppendWireFrame(nil, 0, frame, false)[:serve.WireHeaderSize]
	huge = append([]byte(nil), huge...)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0x7f
	bad = append(bad, huge, wrappingHeader())
	for i, b := range bad {
		_, _, _, _, err := serve.DecodeWireFrame(b)
		if err == nil {
			t.Errorf("bad input %d accepted", i)
			continue
		}
		// The in-place path is the same parser: the same refusal, and the
		// destination untouched.
		dst := mkFrame(2, 2, 5)
		_, _, _, intoErr := serve.DecodeWireInto(b, dst)
		if intoErr == nil || intoErr.Error() != err.Error() {
			t.Errorf("bad input %d: in-place decode error %v, want %v", i, intoErr, err)
		}
		if dst.W != 2 || dst.H != 2 || len(dst.Pix) != 16 || dst.Pix[0] != 5 {
			t.Errorf("bad input %d: rejected decode touched the destination", i)
		}
	}

	// A reused destination decodes in place, to the same pixels.
	dst := mkFrame(5, 3, 9)
	step, deg, rest, err = serve.DecodeWireInto(two, dst)
	if err != nil || step != 0 || deg || len(rest) != len(two)/2 {
		t.Fatalf("in-place decode: step=%d deg=%v rest=%d err=%v", step, deg, len(rest), err)
	}
	if d := img.MaxAbsDiff(frame, dst); d != 0 {
		t.Errorf("in-place decode differs (max diff %v)", d)
	}
}

// wrappingHeader is a 20-byte wire header that claims a 0xFFFFFFFF x
// 0xFFFFFFFF frame: on a 64-bit int the pixel count wraps negative, so a
// bound on the product alone lets it through to the allocation.
func wrappingHeader() []byte {
	return []byte(serve.WireMagic + "\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00")
}
