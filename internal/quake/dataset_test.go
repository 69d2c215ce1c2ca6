package quake

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pfs"
)

// basinL is the mesh configuration of quakebench's basin-l dataset
// (bench/dataset.go) over demoBasin, which is the same material model:
// ~46k leaves at levels 3 to 6, the mesh batch_render's cold start reads.
var basinL = mesh.Config{Domain: 2000, FMax: 4, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}

var basinStore = sync.OnceValues(func() (pfs.Store, error) {
	m, err := mesh.Generate(basinL, demoBasin{})
	if err != nil {
		return nil, err
	}
	st := pfs.NewMemStore()
	return st, WriteMesh(st, m)
})

// BenchmarkReadMesh times the mesh half of every cold start: read the
// basin-sized mesh object, decode its leaf, node and corner tables, check
// them and build the node index and the hanging-node tables
// (mesh.FromTables).
func BenchmarkReadMesh(b *testing.B) {
	st, err := basinStore()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMesh(st); err != nil {
			b.Fatal(err)
		}
	}
}

// gradedMesh is a small graded mesh: 2:1-balanced, with levels 1 to 3,
// so it has hanging nodes and siblings to swap.
func gradedMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 3, MinLevel: 1}, demoBasin{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeMesh returns the mesh object WriteMesh writes for m.
func encodeMesh(t testing.TB, m *mesh.Mesh) []byte {
	t.Helper()
	st := pfs.NewMemStore()
	if err := WriteMesh(st, m); err != nil {
		t.Fatal(err)
	}
	return objectBytes(t, st)
}

func objectBytes(t testing.TB, st pfs.Store) []byte {
	t.Helper()
	n, err := st.Size(MeshObject)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, n)
	if err := st.ReadAt(nil, MeshObject, 0, raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// readMeshBytes runs ReadMesh on raw as the mesh object.
func readMeshBytes(raw []byte) (*mesh.Mesh, error) {
	st := pfs.NewMemStore()
	st.Write(MeshObject, raw)
	return ReadMesh(st)
}

// leafRecord returns the bytes of leaf record i of a mesh object.
func leafRecord(raw []byte, i int) []byte {
	return raw[meshHeaderBytes+meshLeafBytes*i : meshHeaderBytes+meshLeafBytes*(i+1)]
}

// putLeaf overwrites leaf record i with cell c.
func putLeaf(raw []byte, i int, c octree.Cell) {
	r := leafRecord(raw, i)
	binary.LittleEndian.PutUint32(r, c.X)
	binary.LittleEndian.PutUint32(r[4:], c.Y)
	binary.LittleEndian.PutUint32(r[8:], c.Z)
	r[12] = c.Level
}

// withTables returns a copy of m's tables, as far as WriteMesh reads them,
// whose nodes and elements edit may change: the source of a mesh object
// with tables mesh.FromTree would not derive.
func withTables(m *mesh.Mesh, edit func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord) *mesh.Mesh {
	elems := slices.Clone(m.Elems)
	return &mesh.Mesh{Tree: m.Tree, Domain: m.Domain, Elems: elems, Nodes: edit(slices.Clone(m.Nodes), elems)}
}

// renumber returns m's node and corner tables numbered in first-touch
// order except that the dup-th corner to touch a coordinate again takes a
// new id: two nodes at that coordinate, in otherwise consistent tables.
func renumber(m *mesh.Mesh, dup int) ([]mesh.GridCoord, []mesh.Elem) {
	elems := slices.Clone(m.Elems)
	var nodes []mesh.GridCoord
	ids := map[mesh.GridCoord]int32{}
	again := 0
	for li := range elems {
		for k := range elems[li].N {
			g := mesh.CellCorner(elems[li].Leaf, k)
			id, ok := ids[g]
			if ok {
				again++
			}
			if !ok || again == dup {
				id = int32(len(nodes))
				nodes = append(nodes, g)
				ids[g] = id
			}
			elems[li].N[k] = id
		}
	}
	return nodes, elems
}

// qkme1Bytes is m's mesh object in the QKME1 format: a 20-byte header
// (magic, domain, leaf count) and the 13-byte leaf records alone.
func qkme1Bytes(m *mesh.Mesh) []byte {
	le := binary.LittleEndian
	raw := le.AppendUint64(nil, meshMagicV1)
	raw = le.AppendUint64(raw, math.Float64bits(m.Domain))
	raw = le.AppendUint32(raw, uint32(m.Tree.Len()))
	for _, c := range m.Tree.Leaves {
		raw = le.AppendUint32(raw, c.X)
		raw = le.AppendUint32(raw, c.Y)
		raw = le.AppendUint32(raw, c.Z)
		raw = append(raw, c.Level)
	}
	return raw
}

// uniform is a single material everywhere.
type uniform struct{}

func (uniform) At([3]float64) mesh.Material { return mesh.Material{Rho: 2000, Vs: 2000, Vp: 3600} }

// cornerSlow is slow in one corner, so the mesh refines there.
type cornerSlow struct{}

func (cornerSlow) At(p [3]float64) mesh.Material {
	vs := 2000.0
	if p[0] < 0.3 && p[1] < 0.3 && p[2] < 0.3 {
		vs = 300
	}
	return mesh.Material{Rho: 2000, Vs: vs, Vp: 1.8 * vs}
}

// mixedTree is the root's first octant split once more beside its seven
// other octants: 15 leaves, with hanging nodes on the split octant's
// faces.
func mixedTree() *octree.Tree {
	var leaves []octree.Cell
	for i := 0; i < 8; i++ {
		leaves = append(leaves, octree.Cell{Level: 1}.Child(i))
	}
	for i := 1; i < 8; i++ {
		leaves = append(leaves, octree.Root.Child(i))
	}
	return octree.FromLeaves(leaves)
}

// roundTripTrees are the trees mesh's TestFromTreeMatchesFrozen holds
// FromTree to its frozen builder on: uniform, graded, basin-like, mixed
// and one-leaf meshes, and four random trees balanced and not.
func roundTripTrees(t *testing.T) map[string]*octree.Tree {
	gen := func(cfg mesh.Config, model mesh.Model) *octree.Tree {
		m, err := mesh.Generate(cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		return m.Tree
	}
	trees := map[string]*octree.Tree{
		"uniform": gen(mesh.Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 5, MinLevel: 1}, uniform{}),
		"graded":  gen(mesh.Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 6, MinLevel: 2}, cornerSlow{}),
		"basin":   gen(mesh.Config{Domain: 2000, FMax: 3, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, demoBasin{}),
		"mixed":   mixedTree(),
		"root":    octree.FromLeaves([]octree.Cell{octree.Root}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raw := octree.Build(7, func(c octree.Cell) bool { return c.Level < 1 || rng.Float64() < 0.3 })
		trees[fmt.Sprintf("random%d-balanced", seed)] = raw.Balance21()
		trees[fmt.Sprintf("random%d-unbalanced", seed)] = raw
	}
	return trees
}

// TestReadMeshRoundTrip: on every tree TestFromTreeMatchesFrozen uses, the
// mesh ReadMesh decodes from the object WriteMesh writes is the one
// mesh.FromTree builds — nodes, elements, constraints, IsHanging, and
// NodeID on every node, every leaf's edge midpoints, face centres and
// centre, and four coordinates off the grid — and re-encodes to the same
// bytes.
func TestReadMeshRoundTrip(t *testing.T) {
	for name, tree := range roundTripTrees(t) {
		want := mesh.FromTree(tree, 2000, nil)
		raw := encodeMesh(t, want)
		got, err := readMeshBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Domain != 2000 || !slices.Equal(got.Tree.Leaves, tree.Leaves) || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Elems, want.Elems) {
			t.Fatalf("%s: read mesh: domain %v, %d leaves, %d nodes; want %d, %d", name, got.Domain, got.NumElems(), got.NumNodes(), want.NumElems(), want.NumNodes())
		}
		if !slices.EqualFunc(got.Hanging, want.Hanging, func(a, b mesh.Constraint) bool {
			return a.Node == b.Node && slices.Equal(a.Masters, b.Masters)
		}) {
			t.Fatalf("%s: %d constraints, FromTree %d, or they differ", name, len(got.Hanging), len(want.Hanging))
		}
		for id := int32(-2); id < int32(want.NumNodes())+2; id++ {
			if got.IsHanging(id) != want.IsHanging(id) {
				t.Fatalf("%s: IsHanging(%d) = %v", name, id, got.IsHanging(id))
			}
		}
		probe := func(g mesh.GridCoord) {
			id, ok := got.NodeID(g)
			wid, wok := want.NodeID(g)
			if id != wid || ok != wok {
				t.Fatalf("%s: NodeID(%v) = %d, %v; FromTree's %d, %v", name, g, id, ok, wid, wok)
			}
		}
		for _, g := range want.Nodes {
			probe(g)
		}
		for _, leaf := range tree.Leaves {
			for i := 0; i < 8; i++ {
				for j := i + 1; j < 8; j++ {
					a, b := mesh.CellCorner(leaf, i), mesh.CellCorner(leaf, j)
					probe(mesh.GridCoord{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2})
				}
			}
		}
		const top = 1 << octree.MaxLevel
		for _, g := range []mesh.GridCoord{{1, 2, 3}, {top + 1, 0, 0}, {0, 0, top + 1}, {^uint32(0), ^uint32(0), ^uint32(0)}} {
			probe(g)
		}
		if !bytes.Equal(encodeMesh(t, got), raw) {
			t.Errorf("%s: mesh object does not re-encode to its bytes", name)
		}
	}
}

// TestReadMeshRejectsMalformed feeds ReadMesh objects WriteMesh cannot
// have written. Each must fail with an error, and none may allocate by
// the leaf or node count its header claims: a 20-byte object claiming
// 0xFFFFFFFF leaves once asked for ~64 GiB of cells before it noticed the
// object was short.
func TestReadMeshRejectsMalformed(t *testing.T) {
	m := gradedMesh(t)
	valid := encodeMesh(t, m)
	n, nn := m.NumElems(), m.NumNodes()
	first := m.Tree.Leaves[0]
	edit := func(f func(raw []byte) []byte) []byte { return f(slices.Clone(valid)) }
	tables := func(f func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord) []byte {
		return encodeMesh(t, withTables(m, f))
	}
	dupNodes, dupElems := renumber(m, 5)
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", valid[:meshHeaderBytes-1], "truncated"},
		{"bad magic", edit(func(r []byte) []byte { r[0] ^= 1; return r }), "magic"},
		{"QKME1 object", qkme1Bytes(m), "QKME1 format"},
		{"huge leaf claim", edit(func(r []byte) []byte {
			binary.LittleEndian.PutUint32(r[16:], 0xFFFFFFFF)
			return r[:meshHeaderBytes]
		}), "for 4294967295 leaves"},
		{"huge node claim", edit(func(r []byte) []byte { binary.LittleEndian.PutUint32(r[20:], 0xFFFFFFFF); return r }), "and 4294967295 nodes"},
		{"trailing byte", append(slices.Clone(valid), 0), "bytes for"},
		{"missing byte", valid[:len(valid)-1], "bytes for"},
		{"missing leaf", edit(func(r []byte) []byte {
			binary.LittleEndian.PutUint32(r[16:], uint32(n-1))
			r = slices.Delete(r, meshHeaderBytes+meshLeafBytes*(n-1), meshHeaderBytes+meshLeafBytes*n)
			return r[:len(r)-meshCornerBytes]
		}), "cover"},
		{"invalid cell", edit(func(r []byte) []byte { leafRecord(r, 3)[12] = octree.MaxLevel + 1; return r }), "invalid cell"},
		{"swapped leaves", edit(func(r []byte) []byte {
			a, b := slices.Clone(leafRecord(r, 1)), slices.Clone(leafRecord(r, 2))
			copy(leafRecord(r, 1), b)
			copy(leafRecord(r, 2), a)
			return r
		}), "key order"},
		{"duplicate leaf", edit(func(r []byte) []byte { copy(leafRecord(r, 1), leafRecord(r, 0)); return r }), "key order"},
		{"parent before child", edit(func(r []byte) []byte { putLeaf(r, 0, first.Parent()); return r }), "contains its successor"},
		{"corner id out of range", tables(func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
			elems[4].N[3] = int32(nn)
			return nodes
		}), "out of range"},
		{"negative corner id", tables(func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
			elems[4].N[3] = -1
			return nodes
		}), "out of range"},
		{"corner at the wrong coordinate", tables(func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
			elems[1].N[7] = elems[0].N[7]
			return nodes
		}), "but its node"},
		{"node at the wrong coordinate", tables(func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
			nodes[nn/2][2]++
			return nodes
		}), "but its node"},
		{"ids out of first-touch order", tables(swapIDs(1, 2)), "first-touch order"},
		{"ids out of first-touch order late", tables(swapIDs(int32(nn/2), int32(nn-1))), "first-touch order"},
		{"two nodes at one coordinate", encodeMesh(t, &mesh.Mesh{Tree: m.Tree, Domain: m.Domain, Nodes: dupNodes, Elems: dupElems}), "are both at"},
		{"unreferenced node", tables(func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
			return append(nodes, mesh.GridCoord{1, 2, 3})
		}), "unreferenced node"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readMeshBytes(tc.raw)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing the object allocated %d bytes", tc.name, grew)
		}
	}
}

// swapIDs returns a table edit that swaps node ids a and b: their
// coordinates in the node table and every corner naming either. The
// tables stay consistent — every corner at its node, every node named,
// no coordinate twice — but for a < b, b is named before a.
func swapIDs(a, b int32) func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
	return func(nodes []mesh.GridCoord, elems []mesh.Elem) []mesh.GridCoord {
		nodes[a], nodes[b] = nodes[b], nodes[a]
		for li := range elems {
			for k, id := range elems[li].N {
				switch id {
				case a:
					elems[li].N[k] = b
				case b:
					elems[li].N[k] = a
				}
			}
		}
		return nodes
	}
}

// TestReadMetaRejectsMalformed: ReadMeta refuses a meta object WriteMeta
// cannot have written for a dataset, and a missing one, each with an
// error that begins "quake: bad meta object".
func TestReadMetaRejectsMalformed(t *testing.T) {
	valid := Meta{NumSteps: 3, NumNodes: 100, OutDT: 0.5}
	encode := func(meta Meta) []byte {
		st := pfs.NewMemStore()
		if err := WriteMeta(st, meta); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, metaBytes)
		if err := st.ReadAt(nil, MetaObject, 0, raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	with := func(f func(*Meta)) []byte {
		meta := valid
		f(&meta)
		return encode(meta)
	}
	for _, tc := range []struct {
		name string
		raw  []byte // nil: no meta object
		want string
	}{
		{"missing", nil, "not found"},
		{"short", encode(valid)[:metaBytes-1], "15 bytes"},
		{"long", append(encode(valid), 0), "17 bytes"},
		{"zero interval", with(func(m *Meta) { m.OutDT = 0 }), "step interval 0"},
		{"negative interval", with(func(m *Meta) { m.OutDT = -1 }), "step interval -1"},
		{"NaN interval", with(func(m *Meta) { m.OutDT = math.NaN() }), "step interval NaN"},
		{"infinite interval", with(func(m *Meta) { m.OutDT = math.Inf(1) }), "step interval +Inf"},
		{"no nodes", with(func(m *Meta) { m.NumNodes = 0 }), "no nodes"},
	} {
		st := pfs.NewMemStore()
		if tc.raw != nil {
			st.Write(MetaObject, tc.raw)
		}
		_, err := ReadMeta(st)
		if err == nil || !strings.HasPrefix(err.Error(), "quake: bad meta object") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want a bad meta object error mentioning %q", tc.name, err, tc.want)
		}
	}
	st := pfs.NewMemStore()
	st.Write(MetaObject, encode(valid))
	if got, err := ReadMeta(st); err != nil || got != valid {
		t.Errorf("valid meta read as %+v, %v", got, err)
	}
}

// FuzzReadMesh: arbitrary bytes as the mesh object never panic, and an
// object ReadMesh accepts re-encodes through WriteMesh to exactly its
// bytes. Seeds: the 15-leaf mixed mesh (1.3 KB, small enough for the
// fuzzer to mutate and minimize quickly), the 0xFFFFFFFF-leaf header
// alone, the mesh with a trailing byte, the mesh with two leaves swapped,
// the mesh with two node ids swapped (consistent tables out of
// first-touch order) and the mesh as a QKME1 object.
func FuzzReadMesh(f *testing.F) {
	m := mesh.FromTree(mixedTree(), 2000, nil)
	valid := encodeMesh(f, m)
	f.Add(valid)
	huge := slices.Clone(valid[:meshHeaderBytes])
	binary.LittleEndian.PutUint32(huge[16:], 0xFFFFFFFF)
	f.Add(huge)
	f.Add(append(slices.Clone(valid), 0))
	swapped := slices.Clone(valid)
	copy(leafRecord(swapped, 1), leafRecord(valid, 2))
	copy(leafRecord(swapped, 2), leafRecord(valid, 1))
	f.Add(swapped)
	f.Add(encodeMesh(f, withTables(m, swapIDs(1, 2))))
	f.Add(qkme1Bytes(m))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := readMeshBytes(raw)
		if err != nil {
			return
		}
		st := pfs.NewMemStore()
		if err := WriteMesh(st, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(objectBytes(t, st), raw) {
			t.Errorf("accepted mesh object of %d bytes re-encodes to other bytes", len(raw))
		}
	})
}
