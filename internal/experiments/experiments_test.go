package experiments

import (
	"bytes"
	"hash/fnv"
	"image"
	"image/draw"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/trace"
)

// The quick image figures' goldens: the FNV-1a 64 checksum checkFigure
// takes over the PNGs a figure writes, recorded on linux/amd64 (go1.24)
// from the figures as they rendered before they ran on core.Dataset. Like
// core's goldenFrameSum they pin every visible pixel at 8 bits;
// intentional changes to the figures' pictures must update them.
const (
	goldenFig3Sum  = 0x2e58093f96091732
	goldenFig4Sum  = 0x5bb1f3beb9c93751
	goldenFig11Sum = 0x87b7feedce24f9b4
	goldenFig13Sum = 0x531053344c98e616
)

// checkFigure compares with want the FNV-1a 64 checksum, over the PNGs a
// figure wrote to dir in file-name order, of each file's name and its
// decoded 8-bit RGBA pixels.
func checkFigure(t *testing.T, name, dir string, want uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		// Recorded on amd64; other architectures may fuse multiply-adds
		// (FMA) and move low-order float bits.
		t.Logf("%s golden recorded on amd64, not checked on %s", name, runtime.GOARCH)
		return
	}
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".png" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		im, err := png.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		rgba := image.NewRGBA(im.Bounds())
		draw.Draw(rgba, rgba.Bounds(), im, im.Bounds().Min, draw.Src)
		h.Write([]byte(e.Name()))
		h.Write(rgba.Pix)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("%s images checksum = %#x, want golden %#x", name, got, want)
	}
}

// column extracts a numeric column from a rendered table (skipping header
// and separator lines).
func column(tb *trace.Table, col int) []float64 {
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	var out []float64
	for _, ln := range lines[3:] { // title, header, separator
		fields := strings.Fields(ln)
		if col >= len(fields) {
			continue
		}
		v, err := strconv.ParseFloat(fields[col], 64)
		if err != nil {
			continue
		}
		out = append(out, v)
	}
	return out
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	tb, err := Fig8(true)
	if err != nil {
		t.Fatal(err)
	}
	total := column(tb, 1)
	if len(total) < 4 {
		t.Fatalf("too few rows: %s", tb)
	}
	// One IP: I/O dominates (~24s); enough IPs: total approaches the ~2s
	// rendering time, monotone (within noise) in between.
	if total[0] < 15 {
		t.Errorf("1 IP total %v too low; I/O not visible", total[0])
	}
	last := total[len(total)-1]
	if last > 3.2 {
		t.Errorf("16 IPs total %v; I/O not hidden", last)
	}
	if total[0]/last < 6 {
		t.Errorf("insufficient improvement: %v -> %v", total[0], last)
	}
}

func TestFig9TwoDIPBeatsOneDIP(t *testing.T) {
	tb, err := Fig9(true)
	if err != nil {
		t.Fatal(err)
	}
	d1 := column(tb, 1)
	d2 := column(tb, 2)
	n := len(d1)
	if n == 0 || len(d2) != n {
		t.Fatalf("bad table: %s", tb)
	}
	// At high group counts 1DIP stays near Ts=2s while 2DIP reaches ~1s.
	if d1[n-1] < 1.5 {
		t.Errorf("1DIP final %v below the Ts plateau", d1[n-1])
	}
	if d2[n-1] > 1.5 {
		t.Errorf("2DIP final %v did not reach the rendering time", d2[n-1])
	}
}

func TestFig10FewIPsSuffice(t *testing.T) {
	tb, err := Fig10(true)
	if err != nil {
		t.Fatal(err)
	}
	tot64 := column(tb, 1)
	ren64 := column(tb, 2)
	n := len(tot64)
	// By 4+ input processors the total time is close to the render time.
	if tot64[n-1] > ren64[n-1]*1.5+0.3 {
		t.Errorf("64 PEs: total %v vs render %v — not hidden", tot64[n-1], ren64[n-1])
	}
}

func TestFig12LICHidden(t *testing.T) {
	tb, err := Fig12(true)
	if err != nil {
		t.Fatal(err)
	}
	total := column(tb, 1)
	render := column(tb, 2)
	n := len(total)
	if total[0] < total[n-1]*2 {
		t.Errorf("few IPs should be much slower with LIC: %v vs %v", total[0], total[n-1])
	}
	if total[n-1] > render[n-1]*1.4+0.3 {
		t.Errorf("16+ IPs: LIC not hidden (%v vs render %v)", total[n-1], render[n-1])
	}
}

func TestAdaptiveFetchTable(t *testing.T) {
	tb, err := AdaptiveFetch(true)
	if err != nil {
		t.Fatal(err)
	}
	full := column(tb, 1)
	ad := column(tb, 2)
	// At low IP counts adaptive fetching is much cheaper.
	if ad[0] >= full[0] {
		t.Errorf("adaptive fetch not cheaper at 1 IP: %v vs %v", ad[0], full[0])
	}
}

func TestModelValidationWithinTolerance(t *testing.T) {
	tb, err := ModelValidation(true)
	if err != nil {
		t.Fatal(err)
	}
	ratios := column(tb, 5)
	for i, r := range ratios {
		if r < 0.6 || r > 1.7 {
			t.Errorf("row %d: measured/analytic ratio %v outside tolerance", i, r)
		}
	}
}

// TestFig3AdaptiveFasterAndClose: coarser levels must extract strictly
// fewer cells and stay visually close. The wall-clock speedup they buy
// (paper: 3-4x at level 8 vs 13; here at least 1.5x two levels coarser) is
// scheduler-sensitive under package-parallel load, so it only asserts under
// REPRO_PERF_ASSERT=1 (set by `make ci`), like every wall-clock gate, and
// on the full-size figure: the quick one's ~0.5 ms renders are mostly
// per-pixel work no level removes, and read a speedup of about 1.55.
func TestFig3AdaptiveFasterAndClose(t *testing.T) {
	dir := t.TempDir()
	tb, err := Fig3(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, "Figure 3", dir, goldenFig3Sum)
	cells := column(tb, 1)
	speedups := column(tb, 3)
	rmses := column(tb, 4)
	if len(cells) < 3 || len(speedups) < 3 || len(rmses) < 3 {
		t.Fatalf("bad table: %s", tb)
	}
	for i := 1; i < len(cells); i++ {
		if cells[i] >= cells[i-1] {
			t.Errorf("level row %d extracts %v cells, not fewer than the finer row's %v", i, cells[i], cells[i-1])
		}
	}
	if rmses[2] > 0.25 {
		t.Errorf("adaptive image too different: RMSE %v", rmses[2])
	}
	t.Logf("quick figure, two levels coarser: %.2fx the finest level's render stage", speedups[2])
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		return
	}
	full, err := Fig3(false, "")
	if err != nil {
		t.Fatal(err)
	}
	speedups = column(full, 3)
	t.Logf("full figure, two levels coarser: %.2fx the finest level's render stage", speedups[2])
	if speedups[2] < 1.5 {
		t.Errorf("two levels coarser only %vx faster", speedups[2])
	}
}

func TestFig4EnhancementRevealsStructure(t *testing.T) {
	dir := t.TempDir()
	tb, err := Fig4(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, "Figure 4", dir, goldenFig4Sum)
	visible := column(tb, 1)
	if len(visible) != 2 {
		t.Fatalf("bad table: %s", tb)
	}
	if visible[1] <= visible[0] {
		t.Errorf("enhancement did not increase visible pixels: %v -> %v", visible[0], visible[1])
	}
}

func TestFig11LightingChangesImage(t *testing.T) {
	dir := t.TempDir()
	tb, err := Fig11(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, "Figure 11", dir, goldenFig11Sum)
	rmse := column(tb, 2)
	if len(rmse) != 2 || rmse[1] == 0 {
		t.Errorf("lighting had no visible effect: %s", tb)
	}
}

func TestFig13Runs(t *testing.T) {
	dir := t.TempDir()
	tb, err := Fig13(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, "Figures 13/14", dir, goldenFig13Sum)
	if rows := column(tb, 0); len(rows) != 4 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestIOStrategiesIndependentWins(t *testing.T) {
	tb, err := IOStrategies(true)
	if err != nil {
		t.Fatal(err)
	}
	coll := column(tb, 1)
	ind := column(tb, 2)
	n := len(coll)
	// The paper found independent contiguous reads superior when collective
	// overhead grows (Section 5.3.2): at higher processor counts the
	// independent strategy should not be slower.
	if ind[n-1] > coll[n-1]*1.05 {
		t.Errorf("independent read slower at m=8: %v vs %v", ind[n-1], coll[n-1])
	}
	// More processors must speed up both strategies.
	if ind[n-1] >= ind[0] || coll[n-1] >= coll[0] {
		t.Errorf("no speedup with more readers: ind %v->%v coll %v->%v", ind[0], ind[n-1], coll[0], coll[n-1])
	}
}

func TestCompositingSLICBeatsDirectSendOnMessages(t *testing.T) {
	tb, err := Compositing(true)
	if err != nil {
		t.Fatal(err)
	}
	// Parse rows: ranks, algorithm, msgs, mbytes, wall.
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	stats := map[string]map[int]float64{} // algo -> ranks -> msgs
	bytesOf := map[string]map[int]float64{}
	for _, ln := range lines[3:] {
		f := strings.Fields(ln)
		if len(f) < 5 {
			continue
		}
		ranks, _ := strconv.Atoi(f[0])
		msgs, _ := strconv.ParseFloat(f[2], 64)
		mb, _ := strconv.ParseFloat(f[3], 64)
		if stats[f[1]] == nil {
			stats[f[1]] = map[int]float64{}
			bytesOf[f[1]] = map[int]float64{}
		}
		stats[f[1]][ranks] = msgs
		bytesOf[f[1]][ranks] = mb
	}
	for ranks := range stats["directsend"] {
		if stats["slic"][ranks] > stats["directsend"][ranks] {
			t.Errorf("ranks=%d: SLIC msgs %v > direct send %v", ranks, stats["slic"][ranks], stats["directsend"][ranks])
		}
		if bytesOf["directsend+rle"][ranks] >= bytesOf["directsend"][ranks] {
			t.Errorf("ranks=%d: RLE did not reduce bytes", ranks)
		}
	}
}

func TestRenderScalingParityAndShape(t *testing.T) {
	tb, err := RenderScaling(true)
	if err != nil {
		t.Fatal(err)
	}
	diffs := column(tb, 3)
	if len(diffs) < 3 {
		t.Fatalf("too few rows: %s", tb)
	}
	// The parallel renderer must be pixel-exact against the serial
	// reference at every worker count.
	for i, d := range diffs {
		if d != 0 {
			t.Errorf("row %d: max abs diff %v, want exactly 0", i, d)
		}
	}
	speedups := column(tb, 2)
	for i, s := range speedups {
		if s <= 0 {
			t.Errorf("row %d: nonpositive speedup %v", i, s)
		}
	}
}

func TestMakeDatasetDeterministic(t *testing.T) {
	a, m1, err := MakeDataset(Small, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, m2, err := MakeDataset(Small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumNodes() != m2.NumNodes() {
		t.Fatal("mesh not deterministic")
	}
	read := func(st pfs.Store, name string) []byte {
		t.Helper()
		n, err := st.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if err := st.ReadAt(nil, name, 0, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for _, name := range []string{quake.MeshObject, quake.MetaObject, quake.StepObject(0), quake.StepObject(1)} {
		if !bytes.Equal(read(a, name), read(b, name)) {
			t.Errorf("%s differs between two generations", name)
		}
	}
}

func TestPrefetchAblation(t *testing.T) {
	tb, err := PrefetchAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	d := column(tb, 1)
	if len(d) != 4 {
		t.Fatalf("bad table: %s", tb)
	}
	// Depth 0 must be slowest; the paper's depth 1 sits at the Ts floor
	// (~2s); deeper buffers approach the render time (~1s).
	if !(d[0] > d[1] && d[1] > d[3]) {
		t.Errorf("prefetch depths not ordered: %v", d)
	}
	if d[1] < 1.5 || d[1] > 2.6 {
		t.Errorf("depth-1 interframe %v, want ~Ts=2", d[1])
	}
	if d[3] > 1.6 {
		t.Errorf("depth-4 interframe %v, want near Tr=1", d[3])
	}
}

func TestLoadBalanceAblation(t *testing.T) {
	tb, err := LoadBalanceAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	greedy := column(tb, 1)
	rr := column(tb, 2)
	for i := range greedy {
		if greedy[i] > rr[i]+1e-9 {
			t.Errorf("row %d: greedy imbalance %v worse than contiguous %v", i, greedy[i], rr[i])
		}
		if greedy[i] < 1.0-1e-9 {
			t.Errorf("row %d: impossible imbalance %v", i, greedy[i])
		}
	}
}

func TestCompressionAblation(t *testing.T) {
	tb, err := CompressionAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	comp := column(tb, 1)
	if len(comp) != 2 {
		t.Fatalf("bad table: %s", tb)
	}
	if comp[1] >= comp[0] {
		t.Errorf("compression did not reduce compositing time: %v -> %v", comp[0], comp[1])
	}
}
