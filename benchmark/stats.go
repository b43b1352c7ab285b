package main

import (
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
)

// dist summarizes one metric's samples within a run. Every reported value
// ships with its sample count and min/median/max so a reader can see how
// much the number moved inside the run that produced it.
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize sorts a copy of samples and returns its distribution summary.
func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{N: len(s), Min: s[0], Median: quantile(s, 0.5), P95: quantile(s, 0.95), Max: s[len(s)-1]}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// share returns part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// rateSampler turns a completion counter into one rate per rateWindow while
// a closed loop runs: the driver calls tick on every turn, and each window's
// rate is what completed in it over the time it actually spanned.
type rateSampler struct {
	per             float64 // units per completion
	lastT, lastDone int64
	nextW           int64
	rates           []float64
}

func newRateSampler(t, done int64, per float64) *rateSampler {
	return &rateSampler{per: per, lastT: t, lastDone: done, nextW: t + int64(rateWindow)}
}

func (s *rateSampler) close(t, done int64) {
	s.rates = append(s.rates, float64(done-s.lastDone)*s.per/(float64(t-s.lastT)/1e9))
	s.lastT, s.lastDone, s.nextW = t, done, t+int64(rateWindow)
}

// tick closes the current window once t has passed its end; done is read
// only then.
func (s *rateSampler) tick(t int64, done func() int64) {
	if t >= s.nextW {
		s.close(t, done())
	}
}

// finish returns the window rates without the first, which absorbs the
// ramp. A phase shorter than one window is its own single sample.
func (s *rateSampler) finish(t, done int64) []float64 {
	if len(s.rates) == 0 {
		s.close(t, done)
	}
	if len(s.rates) > 1 {
		return s.rates[1:]
	}
	return s.rates
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the host's total and stolen CPU ticks since boot. Stolen
// time is what a hypervisor gave to other guests while this one wanted to
// run: a run with more than a few percent of it was measured on a contended
// host and says little about the program.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			total += v
			if i == 8 { // "cpu" user nice system idle iowait irq softirq steal
				steal = v
			}
		}
	}
	return total, steal
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct{ bytes, cycles float64 }

func memSince(before *goruntime.MemStats) memDelta {
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	return memDelta{float64(after.TotalAlloc - before.TotalAlloc), float64(after.NumGC - before.NumGC)}
}
