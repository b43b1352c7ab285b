package supervise_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"naiad/internal/supervise"
)

func testStoreRetention(t *testing.T, st supervise.SnapshotStore) {
	t.Helper()
	for e := int64(1); e <= 5; e++ {
		if err := st.Save(e, []byte{byte(e)}); err != nil {
			t.Fatalf("Save(%d): %v", e, err)
		}
	}
	eps, err := st.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{3, 4, 5}; !reflect.DeepEqual(eps, want) {
		t.Fatalf("Epochs = %v, want %v (oldest evicted, ascending)", eps, want)
	}
	for _, e := range eps {
		data, err := st.Load(e)
		if err != nil {
			t.Fatalf("Load(%d): %v", e, err)
		}
		if !bytes.Equal(data, []byte{byte(e)}) {
			t.Fatalf("Load(%d) = %v", e, data)
		}
	}
	if _, err := st.Load(1); err == nil {
		t.Fatal("Load of an evicted epoch succeeded")
	}
}

func TestMemStoreRetention(t *testing.T) {
	testStoreRetention(t, supervise.NewMemStore(3))
}

func TestDiskStoreRetention(t *testing.T) {
	st, err := supervise.NewDiskStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	testStoreRetention(t, st)
}

// TestMemStoreCopies: Load must copy, so a caller mutating what it loaded
// cannot corrupt the retained snapshot.
func TestMemStoreCopies(t *testing.T) {
	st := supervise.NewMemStore(2)
	if err := st.Save(7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	got[1] = 99
	again, _ := st.Load(7)
	if !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("load-side mutation leaked into the store: %v", again)
	}
}

// TestMemStoreSaveKeepsBuffer: Save keeps the buffer it is given — the
// store owns it after the call — so a steady-state Save, evicting as it
// goes, allocates nothing.
func TestMemStoreSaveKeepsBuffer(t *testing.T) {
	st := supervise.NewMemStore(3)
	data := make([]byte, 4096)
	epoch := int64(0)
	save := func() {
		epoch++
		if err := st.Save(epoch, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		save()
	}
	if n := testing.AllocsPerRun(100, save); n != 0 {
		t.Fatalf("steady-state Save allocates %.1f times, want 0", n)
	}
}

// TestDiskStoreSurvivesReopen: snapshots written by one DiskStore are
// visible to a fresh one over the same directory — the property that makes
// recovery after process death possible.
func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := supervise.NewDiskStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	st2, err := supervise.NewDiskStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := st2.Epochs()
	if err != nil || len(eps) != 1 || eps[0] != 42 {
		t.Fatalf("Epochs = %v, %v", eps, err)
	}
	data, err := st2.Load(42)
	if err != nil || string(data) != "hello" {
		t.Fatalf("Load = %q, %v", data, err)
	}
}

// TestDiskStoreIgnoresForeignFiles: stray files in the snapshot directory
// must not be interpreted as epochs or deleted by eviction.
func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := supervise.NewDiskStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, []byte{2}); err != nil {
		t.Fatal(err)
	}
	eps, err := st.Epochs()
	if err != nil || len(eps) != 1 || eps[0] != 2 {
		t.Fatalf("Epochs = %v, %v", eps, err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("eviction removed a foreign file: %v", err)
	}
}
