package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relSpread is (max-min)/median: the spread of a measurement across
// seeds, as a share of its typical value.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup times f after a collection, so garbage left by earlier work
// is not collected inside the timed set-up.
func timeSetup(f func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// rssMB reads the process's resident set (VmRSS) in MiB, falling back
// to the Go runtime's view of memory obtained from the OS where /proc is
// unavailable.
func rssMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmRSS:" {
				if kb, perr := strconv.ParseFloat(fields[1], 64); perr == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sampleRSS returns memory set-up left behind to the OS, then samples the
// resident set every 10 ms until the returned stop function is called;
// stop returns the median sample. The median rather than the peak: a
// peak lands wherever a garbage collection happens to start.
func sampleRSS() (stop func() float64) {
	debug.FreeOSMemory()
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		xs := []float64{rssMB()}
		for {
			select {
			case <-done:
				result <- median(xs)
				return
			case <-t.C:
				xs = append(xs, rssMB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}
