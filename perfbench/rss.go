package main

import (
	"bytes"
	"os"
	"strconv"
	"time"

	"repro/sim/fleet"
)

// rssEvery is how often the resident set is sampled while a batch runs.
const rssEvery = 2 * time.Millisecond

// withRSS runs f while a goroutine samples the process's resident set
// every rssEvery, and returns the samples.
func withRSS(f func() error) ([]uint64, error) {
	stop := make(chan struct{})
	done := make(chan []uint64)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var samples []uint64
		for {
			samples = append(samples, currentRSS())
			select {
			case <-stop:
				done <- samples
				return
			case <-tick.C:
			}
		}
	}()
	err := f()
	close(stop)
	return <-done, err
}

// currentRSS reads the resident set from /proc/self/statm; where that
// is unreadable, the process's high-water mark stands in.
func currentRSS() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if f := bytes.Fields(data); err == nil && len(f) > 1 {
		if pages, err := strconv.ParseUint(string(f[1]), 10, 64); err == nil {
			return pages * uint64(os.Getpagesize())
		}
	}
	return fleet.HostPeakRSS()
}
