package main

// The benchmark's own instruments: percentiles, process CPU and memory,
// the noise-guard calibration kernel, and the metric set a run reports.

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (a rate over nothing attempted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}

// tail returns the highest percentile of sorted that still has at
// least ten samples beyond it, and its value.
func tail(sorted []time.Duration) (pct float64, v time.Duration) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes totals the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// The calibration kernel. The box this benchmark runs on is shared: the
// same binary on the same input runs up to a fifth slower from one
// second to the next, in a way a dependent integer loop does not feel
// and branchy, high-throughput code — which is what the program under
// test is — does. So the kernel is a sort of 8192 fixed pseudo-random
// floats (~0.7 ms): it touches nothing of the program, and measured
// beside an MI-ranking loop over several minutes its time tracks the
// loop's closely enough that dividing by it cut the run-to-run quartile
// spread of the loop from 11% to 3%.
//
// Every timed phase samples the kernel as it goes (between operations,
// never inside one), and its timings are divided by speed = median
// kernel time ÷ calibRef: end-to-end times are reported in milliseconds
// *at reference speed*. calibRef only fixes the unit. The raw numbers
// are kept in the -out record.
const (
	calibN     = 8192
	calibRef   = 700 * time.Microsecond
	calibEvery = 50 * time.Millisecond // ~1.5% of a client's time
)

var calibInput = func() []float64 {
	in := make([]float64, calibN)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range in {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		in[i] = float64(x>>11) / (1 << 53)
	}
	return in
}()

// speedProbe samples the calibration kernel for one goroutine.
type speedProbe struct {
	buf     []float64
	last    time.Time
	samples []time.Duration
}

// sample runs the kernel once, unconditionally.
func (p *speedProbe) sample() {
	if p.buf == nil {
		p.buf = make([]float64, calibN)
	}
	copy(p.buf, calibInput)
	start := time.Now()
	sort.Float64s(p.buf)
	p.last = time.Now()
	p.samples = append(p.samples, p.last.Sub(start))
}

// tick samples the kernel if calibEvery has passed since the last
// sample: call it between operations.
func (p *speedProbe) tick() {
	if time.Since(p.last) >= calibEvery {
		p.sample()
	}
}

// speed is how much slower than reference the machine ran while the
// samples were taken (1: at reference; 1.2: a fifth slower).
func speed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(median(samples)) / float64(calibRef)
}

// calibrate is the noise guard's reading: the median of 25 kernel
// runs. A run whose readings before and after differ by more than
// maxCalibDrift was measured on a box that changed under it.
func calibrate() time.Duration {
	var p speedProbe
	for i := 0; i < 25; i++ {
		p.sample()
	}
	return median(p.samples)
}

const maxCalibDrift = 0.10

func (m metrics) String() string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}
