package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// On a shared host the vCPUs' speed drifts by ±15% over minutes, more
// slowly than a run lasts, so ten runs in a row disagree by 0.1-0.5 of
// their median however many samples each takes; runs of 10 to 60
// seconds spread alike. A branchy reference kernel, timed in short
// slices alternating with the simulator, drifts with it. So every run
// times that kernel in a slice after each of its set-ups and samples,
// and reports its host-time metrics scaled to the speed at which one
// kernel call takes refCallNominal. The kernel is defined here, in the
// benchmark, so no change to the program can move it. The factor is
// printed as host_speed: a time divided by it, or a rate multiplied by
// it, is the raw measurement. bench/README.md gives the measured
// spreads with and without the scaling.

// refCallNominal is how long one refKernel call takes at host speed
// 1, about what it takes on a 2-vCPU Xeon VM.
const refCallNominal = 0.2 / 300 // seconds

// refSink keeps the kernel's result live.
var refSink atomic.Uint64

// refKernel runs a 16-instruction program on a tiny register machine
// for 20000 iterations: dispatch on every instruction and a
// data-dependent branch, which load a core the way the simulator's own
// loops do.
func refKernel(seed uint64) uint64 {
	prog := [16]byte{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 2, 0, 4, 3, 2, 1}
	var regs [8]uint64
	regs[1] = seed | 3
	for it := uint64(0); it < 20000; it++ {
		for pc, op := range prog {
			switch op {
			case 0:
				regs[pc&7] += regs[(pc+1)&7] + 1
			case 1:
				regs[pc&7] ^= regs[(pc+3)&7] << 1
			case 2:
				if regs[pc&7]&1 == 0 {
					regs[(pc+2)&7]++
				} else {
					regs[(pc+5)&7]--
				}
			case 3:
				regs[pc&7] = regs[pc&7]*2654435761 + it
			case 4:
				regs[(pc+4)&7] = regs[pc&7] >> 3
			}
		}
	}
	return regs[0]
}

// calibrator collects a run's reference slices.
type calibrator struct {
	calls int // refKernel calls per CPU in one slice
	mu    sync.Mutex
	times []float64 //md:guardedby mu
}

// slice times c.calls runs of the kernel on every CPU at once. It
// first finishes any garbage collection the workload left running, so
// that the collector's work does not slow the kernel.
func (c *calibrator) slice() {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var x uint64
			for k := 0; k < c.calls; k++ {
				x += refKernel(uint64(i*c.calls + k))
			}
			refSink.Add(x)
		}(i)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	c.mu.Lock()
	c.times = append(c.times, d)
	c.mu.Unlock()
}

// speed is the host's speed over the run: a slice's nominal time over
// the median slice, with the slices as its samples.
func (c *calibrator) speed() Metric {
	c.mu.Lock()
	defer c.mu.Unlock()
	speeds := make([]float64, len(c.times))
	for i, t := range c.times {
		speeds[i] = refCallNominal * float64(c.calls) / t
	}
	return medianMetric("ratio", speeds)
}

// scaled is m measured at host speed s, restated at speed 1: times
// shrink and rates grow on a slow host (s < 1). Metrics in other units
// are returned as they are.
func (m Metric) scaled(s float64) Metric {
	f := 1.0
	switch m.Unit {
	case "s", "ms", "us", "ns":
		f = s
	case "1/s", "insts/s":
		f = 1 / s
	}
	m.Value *= f
	m.Q1 *= f
	m.Median *= f
	m.Q3 *= f
	return m
}
