package pfs

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestMemStoreWriteRead(t *testing.T) {
	st := NewMemStore()
	if err := st.Write("a", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	n, err := st.Size("a")
	if err != nil || n != 11 {
		t.Fatalf("size = %d, %v", n, err)
	}
	buf := make([]byte, 5)
	if err := st.ReadAt(nil, "a", 6, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("read %q", buf)
	}
}

func TestMemStoreMissing(t *testing.T) {
	st := NewMemStore()
	if _, err := st.Size("x"); err == nil {
		t.Error("missing object Size succeeded")
	}
	if err := st.ReadAt(nil, "x", 0, make([]byte, 1)); err == nil {
		t.Error("missing object ReadAt succeeded")
	}
}

func TestMemStoreOutOfRange(t *testing.T) {
	st := NewMemStore()
	st.Write("a", []byte("abc"))
	if err := st.ReadAt(nil, "a", 2, make([]byte, 5)); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if err := st.ReadAt(nil, "a", -1, make([]byte, 1)); err == nil {
		t.Error("negative offset read succeeded")
	}
}

func TestVirtualObjectReadsZeros(t *testing.T) {
	st := NewMemStore()
	st.CreateVirtual("big", 1<<20)
	n, err := st.Size("big")
	if err != nil || n != 1<<20 {
		t.Fatalf("virtual size = %d, %v", n, err)
	}
	buf := []byte{1, 2, 3, 4}
	if err := st.ReadAt(nil, "big", 12345, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Errorf("virtual read = %v", buf)
	}
}

func TestWriteReplacesVirtual(t *testing.T) {
	st := NewMemStore()
	st.CreateVirtual("a", 100)
	st.Write("a", []byte("xy"))
	n, _ := st.Size("a")
	if n != 2 {
		t.Errorf("size after write = %d", n)
	}
}

func TestReadChargesIO(t *testing.T) {
	st := NewMemStore()
	st.Write("a", make([]byte, 1000))
	elapsed := mpi.RunSim(1, mpi.SimConfig{
		OutBW: 1e8, InBW: 1e8, DiskClientBW: 1e6, DiskAggBW: 1e7, SeekTime: 0.01,
	}, func(c *mpi.Comm) {
		buf := make([]byte, 500)
		if err := st.ReadAt(c, "a", 0, buf); err != nil {
			t.Error(err)
		}
	})
	// One seek, then 500 bytes at the 1 MB/s client bandwidth.
	if want := 0.01 + 500/1e6; math.Abs(elapsed-want) > 1e-12 {
		t.Errorf("read charged %v s of virtual time, want %v", elapsed, want)
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write("sub/file.dat", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	n, err := st.Size("sub/file.dat")
	if err != nil || n != 7 {
		t.Fatalf("size = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if err := st.ReadAt(nil, "sub/file.dat", 3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "load" {
		t.Errorf("read %q", buf)
	}
	if _, err := st.Size("missing"); err == nil {
		t.Error("missing file Size succeeded")
	}
	if err := st.Write("../escape", nil); err == nil {
		t.Error("path escape allowed")
	}
}

func TestWaitStoreBlocksUntilPublished(t *testing.T) {
	inner := NewMemStore()
	w := NewWaitStore(inner)
	done := make(chan int64, 1)
	go func() {
		n, err := w.Size("late") // blocks until published
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("Size returned before publish")
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Write("late", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n != 4 {
			t.Errorf("size = %d", n)
		}
	case <-time.After(time.Second):
		t.Fatal("Size never unblocked")
	}
}

func TestWaitStorePublishExisting(t *testing.T) {
	inner := NewMemStore()
	inner.Write("pre", []byte("xyz"))
	w := NewWaitStore(inner)
	w.Publish("pre")
	buf := make([]byte, 3)
	if err := w.ReadAt(nil, "pre", 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "xyz" {
		t.Errorf("read %q", buf)
	}
}

func TestWaitStoreCloseUnblocks(t *testing.T) {
	w := NewWaitStore(NewMemStore())
	errc := make(chan error, 1)
	go func() {
		_, err := w.Size("never")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("expected not-found after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock waiter")
	}
}

func TestWaitStoreConcurrentReaders(t *testing.T) {
	w := NewWaitStore(NewMemStore())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2)
			if err := w.ReadAt(nil, "obj", 0, buf); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	w.Write("obj", []byte("ok"))
	wg.Wait()
}

func TestInvalidObjectNameClassifiedPermanent(t *testing.T) {
	// PR 9: the errclass analyzer requires every pfs error to wrap a
	// sentinel; the path-traversal rejection is explicitly permanent.
	st := &DirStore{Dir: t.TempDir()}
	if err := st.ReadAt(nil, "../escape", 0, make([]byte, 1)); !errors.Is(err, ErrPermanent) {
		t.Errorf("traversal name: err = %v, want ErrPermanent", err)
	}
}
