package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// calRef is about the calibration kernel's time on the reference machine, a
// 2-vCPU Intel Xeon VM running Go 1.24.
const calRef = 4 * time.Millisecond

// speed runs the calibration kernel and returns calRef over its time: the
// factor that turns a wall time measured now into reference-machine time.
//
// On a shared machine the speed available to one VM drifts over minutes,
// mostly through memory bandwidth: on the reference machine a replay's wall
// time doubled for minutes at a time. Every workload here is allocation-
// heavy, and scaling each window of ops by a kernel of the same kind timed
// on both sides of it cancels most of that drift; the raw wall times are
// printed beside the scaled ones. The collector is off while the kernel
// runs, so that its time does not depend on the heap the workload left.
func speed() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		runtime.GC()
		if d := kernelTime(); d < best {
			best = d
		}
	}
	runtime.GC()
	return float64(calRef) / float64(best)
}

// kernelTime runs the kernel on every P at once, so that it samples all the
// CPUs the workloads use, and returns the wall time.
func kernelTime() time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel()
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// kernelSink keeps the kernel's results live.
var kernelSink atomic.Int64

// kernel is fixed allocation-heavy work, about 1.5 MB: map inserts of fresh
// strings, then appending to and sorting a slice.
func kernel() {
	m := make(map[int]string)
	for i := 0; i < 10000; i++ {
		m[i] = strconv.Itoa(i) + "x"
	}
	var xs []int
	for i := 0; i < 25000; i++ {
		xs = append(xs, (i*7919)%100003)
	}
	sort.Ints(xs)
	kernelSink.Add(int64(len(m) + xs[len(xs)/2]))
}
