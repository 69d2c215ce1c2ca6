package quake

import (
	"bytes"
	"encoding/binary"
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
// basin-sized mesh object, decode its leaves and rebuild the node, element
// and hanging-node tables (mesh.FromTree).
func BenchmarkReadMesh(b *testing.B) {
	st, err := basinStore()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMesh(st); err != nil {
			b.Fatal(err)
		}
	}
}

// meshBytes is the mesh object of a small graded mesh: 2:1-balanced, with
// levels 1 to 3, so it has hanging nodes and siblings to swap.
func meshBytes(t testing.TB) []byte {
	t.Helper()
	m, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 3, MinLevel: 1}, demoBasin{})
	if err != nil {
		t.Fatal(err)
	}
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

func TestReadMeshRoundTrip(t *testing.T) {
	raw := meshBytes(t)
	m, err := readMeshBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := mesh.FromTree(octree.FromLeaves(m.Tree.Leaves), m.Domain, nil)
	if m.Domain != 2000 || !slices.Equal(m.Nodes, want.Nodes) || !slices.Equal(m.Elems, want.Elems) || len(m.Hanging) == 0 {
		t.Fatalf("read mesh: domain %v, %d nodes, %d hanging", m.Domain, len(m.Nodes), len(m.Hanging))
	}
	st := pfs.NewMemStore()
	if err := WriteMesh(st, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(objectBytes(t, st), raw) {
		t.Error("mesh object does not re-encode to its bytes")
	}
}

// TestReadMeshRejectsMalformed feeds ReadMesh objects WriteMesh cannot
// have written. Each must fail with an error, and none may allocate by
// the leaf count its header claims: a 20-byte object claiming 0xFFFFFFFF
// leaves once asked for ~64 GiB of cells before it noticed the object
// was short.
func TestReadMeshRejectsMalformed(t *testing.T) {
	valid := meshBytes(t)
	n := (len(valid) - meshHeaderBytes) / meshLeafBytes
	first := func() octree.Cell {
		m, err := readMeshBytes(valid)
		if err != nil {
			t.Fatal(err)
		}
		return m.Tree.Leaves[0]
	}()
	edit := func(f func(raw []byte) []byte) []byte { return f(slices.Clone(valid)) }
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", valid[:19], "truncated"},
		{"bad magic", edit(func(r []byte) []byte { r[0] ^= 1; return r }), "magic"},
		{"huge claim", edit(func(r []byte) []byte {
			binary.LittleEndian.PutUint32(r[16:], 0xFFFFFFFF)
			return r[:meshHeaderBytes]
		}), "for 4294967295 leaves"},
		{"trailing byte", append(slices.Clone(valid), 0), "bytes for"},
		{"missing byte", valid[:len(valid)-1], "bytes for"},
		{"missing leaf", edit(func(r []byte) []byte {
			binary.LittleEndian.PutUint32(r[16:], uint32(n-1))
			return r[:len(r)-meshLeafBytes]
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

// FuzzReadMesh: arbitrary bytes as the mesh object never panic, and an
// object ReadMesh accepts re-encodes through WriteMesh to exactly its
// bytes. Seeds: a valid mesh, the 0xFFFFFFFF-leaf header alone, the mesh
// with a trailing byte, and the mesh with two leaves swapped.
func FuzzReadMesh(f *testing.F) {
	valid := meshBytes(f)
	f.Add(valid)
	huge := slices.Clone(valid[:meshHeaderBytes])
	binary.LittleEndian.PutUint32(huge[16:], 0xFFFFFFFF)
	f.Add(huge)
	f.Add(append(slices.Clone(valid), 0))
	swapped := slices.Clone(valid)
	copy(leafRecord(swapped, 1), leafRecord(valid, 2))
	copy(leafRecord(swapped, 2), leafRecord(valid, 1))
	f.Add(swapped)
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
