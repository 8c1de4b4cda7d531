package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// hostSample is one measurement of the machine itself, taken before each
// round: it moves only when the machine does, which tells a slower run
// on a busy or throttled host apart from a slower program.
type hostSample struct {
	refUS   float64 // one fixed SHA-256 kernel, alone
	speedup float64 // two kernels one after the other ÷ two kernels on two goroutines
}

var hostBuf = make([]byte, 1<<20)

func hostKernel() { sha256.Sum256(hostBuf) }

// measureHost collects the program's garbage first, so the kernels run
// beside nothing of the program's own.
func measureHost() hostSample {
	runtime.GC()
	t0 := time.Now()
	hostKernel()
	hostKernel()
	seq := time.Since(t0)
	t0 = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hostKernel()
		}()
	}
	wg.Wait()
	par := time.Since(t0)
	return hostSample{refUS: float64(seq) / 2e3, speedup: float64(seq) / float64(par)}
}

func setHost(res *result, hs []hostSample) {
	var ref, sp []float64
	for _, h := range hs {
		ref, sp = append(ref, h.refUS), append(sp, h.speedup)
	}
	res.layer["host.ref_us"] = median(ref)
	res.layer["host.par_speedup"] = median(sp)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
