package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer (choosing-metrics §4): a root per unit of user-visible work
// (an epoch, a door operation, a loop job), children at each boundary the
// benchmark can observe, and leaf spans from the codec and transport
// decorators. Spans inside the program are a later change.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	kids []*span
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanLog collects leaf spans from decorator callbacks; their parent is
// found afterwards by time containment. A nil log drops everything, so
// untraced code paths need no branches.
type spanLog struct {
	mu    sync.Mutex
	loose []span
}

func (l *spanLog) add(name string, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.loose = append(l.loose, span{Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// spanTree is the finished trace of one workload.
type spanTree struct {
	roots  []*span
	nextID int64
}

// root adds a root span with consecutive children cut at the given
// boundaries: names[i] covers [cuts[i], cuts[i+1]). Boundaries are clamped
// to be monotone, so an observation that raced its neighbour by a few
// nanoseconds yields an empty child, not a negative one.
func (t *spanTree) root(name string, names []string, cuts []int64) *span {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	t.nextID++
	r := &span{ID: t.nextID, Name: name, Start: cuts[0], End: cuts[len(cuts)-1]}
	for i, n := range names {
		t.nextID++
		r.kids = append(r.kids, &span{ID: t.nextID, Parent: r.ID, Name: n, Start: cuts[i], End: cuts[i+1]})
	}
	t.roots = append(t.roots, r)
	return r
}

// adopt hangs each loose leaf span under the child named `under` of the
// latest-started root whose child interval contains the leaf's midpoint,
// clipping it to that interval. Leaves under one host that overlap in time
// (frames in flight in both directions at once) are clipped so each instant
// is charged once, to the leaf that started first; self times then add up to
// the root. Leaves that fall outside every root (warm-up traffic, the
// saturate phase) are dropped and counted.
func (t *spanTree) adopt(l *spanLog, under string) (dropped int) {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	loose := l.loose
	l.loose = nil
	l.mu.Unlock()
	sort.Slice(t.roots, func(i, j int) bool { return t.roots[i].Start < t.roots[j].Start })
	hosts := make(map[*span]bool)
	for _, s := range loose {
		mid := s.Start + (s.End-s.Start)/2
		// First root starting after mid; candidates are before it.
		i := sort.Search(len(t.roots), func(i int) bool { return t.roots[i].Start > mid })
		var host *span
		for j := i - 1; j >= 0 && host == nil && i-j <= 64; j-- {
			for _, k := range t.roots[j].kids {
				if k.Name == under && k.Start <= mid && mid < k.End {
					host = k
				}
			}
		}
		if host == nil {
			dropped++
			continue
		}
		leaf := s
		leaf.Start, leaf.End = max(leaf.Start, host.Start), min(leaf.End, host.End)
		host.kids = append(host.kids, &leaf)
		hosts[host] = true
	}
	for host := range hosts {
		sort.SliceStable(host.kids, func(i, j int) bool { return host.kids[i].Start < host.kids[j].Start })
		kept := host.kids[:0]
		edge := host.Start
		for _, k := range host.kids {
			k.Start = max(k.Start, edge)
			if k.End <= k.Start {
				continue
			}
			edge = k.End
			t.nextID++
			k.ID, k.Parent = t.nextID, host.ID
			kept = append(kept, k)
		}
		host.kids = kept
	}
	return dropped
}

// cover is the length of the union of the children's intervals.
func cover(kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{k.Start, k.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfTimes adds each descendant's self time (duration minus the part its
// children cover) into byName and returns their sum.
func selfTimes(s *span, byName map[string]int64) int64 {
	var sum int64
	for _, k := range s.kids {
		self := k.dur() - cover(k.kids)
		byName[k.Name] += self
		sum += self + selfTimes(k, byName)
	}
	return sum
}

// breakdown is the per-layer share table of one span tree.
type breakdown struct {
	roots    int
	shares   map[string]float64 // span name → Σ self time / Σ root duration
	sumError float64            // median over roots of |Σ descendants' self − root| / root
}

func (t *spanTree) breakdown() breakdown {
	b := breakdown{roots: len(t.roots), shares: make(map[string]float64)}
	byName := make(map[string]int64)
	var total int64
	errs := make([]float64, 0, len(t.roots))
	for _, r := range t.roots {
		if r.dur() <= 0 {
			continue
		}
		sum := selfTimes(r, byName)
		total += r.dur()
		d := float64(sum - r.dur())
		if d < 0 {
			d = -d
		}
		errs = append(errs, d/float64(r.dur()))
	}
	for n, v := range byName {
		b.shares[n] = share(float64(v), float64(total))
	}
	b.sumError = median(errs)
	return b
}

// maxTraceSpans bounds the trace file; the breakdown always uses every span.
const maxTraceSpans = 50000

// write dumps the tree as a flat span list to out/trace-<workload>.json.
func (t *spanTree) write(workload string) (string, error) {
	var flat []*span
	total := 0
	var walk func(s *span)
	walk = func(s *span) {
		total++
		if len(flat) < maxTraceSpans {
			flat = append(flat, s)
		}
		for _, k := range s.kids {
			walk(k)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.Marshal(struct {
		Workload  string  `json:"workload"`
		Spans     []*span `json:"spans"`
		Truncated int     `json:"spans_not_written"`
	}{workload, flat, total - len(flat)})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
