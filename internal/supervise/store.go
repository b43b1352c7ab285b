package supervise

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SnapshotStore persists encoded snapshots keyed by the epoch boundary
// they were taken at. Implementations retain a bounded number of recent
// snapshots: recovery walks Epochs() from newest to oldest until it finds
// one that decodes cleanly, so keeping K > 1 turns a corrupt latest
// snapshot into a longer replay instead of a lost computation.
type SnapshotStore interface {
	// Save persists data under epoch, evicting the oldest snapshots beyond
	// the store's retention limit. The store owns data after the call: the
	// caller must not modify it.
	Save(epoch int64, data []byte) error
	// Epochs returns the retained snapshot epochs in ascending order.
	Epochs() ([]int64, error)
	// Load returns the snapshot saved under epoch.
	Load(epoch int64) ([]byte, error)
}

// MemStore is the in-memory SnapshotStore: snapshots survive computation
// restarts but not process death. The zero value is unusable; use
// NewMemStore.
type MemStore struct {
	mu   sync.Mutex
	k    int
	snap map[int64][]byte
}

// NewMemStore returns a MemStore retaining the last k snapshots (k ≥ 1).
func NewMemStore(k int) *MemStore {
	if k < 1 {
		k = 1
	}
	return &MemStore{k: k, snap: make(map[int64][]byte)}
}

// Save keeps data itself under epoch: the store owns it after the call.
func (m *MemStore) Save(epoch int64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap[epoch] = data
	for len(m.snap) > m.k {
		oldest := int64(0)
		first := true
		for e := range m.snap {
			if first || e < oldest {
				oldest, first = e, false
			}
		}
		delete(m.snap, oldest)
	}
	return nil
}

// Epochs returns the retained epochs, ascending.
func (m *MemStore) Epochs() ([]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	eps := make([]int64, 0, len(m.snap))
	for e := range m.snap {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	return eps, nil
}

// Load returns a copy of the snapshot stored under epoch.
func (m *MemStore) Load(epoch int64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.snap[epoch]
	if !ok {
		return nil, fmt.Errorf("supervise: no snapshot for epoch %d", epoch)
	}
	return append([]byte(nil), data...), nil
}

// DiskStore is the on-disk SnapshotStore: one file per snapshot under a
// directory, written atomically (temp file + rename) so a crash mid-write
// never leaves a half-snapshot under a valid name. File damage after the
// fact is caught by the snapshot checksum at load time.
type DiskStore struct {
	mu  sync.Mutex
	dir string
	k   int
}

const snapExt = ".snap"

// NewDiskStore returns a DiskStore rooted at dir (created if missing)
// retaining the last k snapshots (k ≥ 1).
func NewDiskStore(dir string, k int) (*DiskStore, error) {
	if k < 1 {
		k = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: snapshot dir: %w", err)
	}
	return &DiskStore{dir: dir, k: k}, nil
}

func (d *DiskStore) path(epoch int64) string {
	// Zero-padded decimal keeps lexicographic and numeric order aligned.
	return filepath.Join(d.dir, fmt.Sprintf("%020d%s", epoch, snapExt))
}

// Save atomically writes data under epoch and evicts beyond retention.
func (d *DiskStore) Save(epoch int64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(epoch)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	eps, err := d.epochsLocked()
	if err != nil {
		return err
	}
	for i := 0; i < len(eps)-d.k; i++ {
		os.Remove(d.path(eps[i]))
	}
	return nil
}

// Epochs returns the retained epochs, ascending.
func (d *DiskStore) Epochs() ([]int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epochsLocked()
}

func (d *DiskStore) epochsLocked() ([]int64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var eps []int64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, snapExt) {
			continue
		}
		e, err := strconv.ParseInt(strings.TrimSuffix(name, snapExt), 10, 64)
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	return eps, nil
}

// Load returns the snapshot stored under epoch.
func (d *DiskStore) Load(epoch int64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return os.ReadFile(d.path(epoch))
}
