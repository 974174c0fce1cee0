package main

// Peak resident memory by stretch of a run. getrusage gives only the peak
// of the whole process, which in a batch run is the worst moment of many
// rounds and moves with the seed's order of cells; sampling gives a peak
// per round, and the median over rounds moves less.

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssEvery is how often the sampler reads the resident memory: a cell that
// allocates enough to move the peak runs for tens of milliseconds.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident memory every rssEvery and keeps
// the peak since it was last taken.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample reads the resident set size from /proc/self/statm (its second
// field, in pages).
func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
	s.mu.Unlock()
}

// take returns the peak in MiB since the last take and starts a new one
// from the memory resident now.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	peak := s.peak
	s.peak = 0
	s.mu.Unlock()
	s.sample()
	return float64(peak) / (1 << 20)
}

// close stops the sampler and waits for it to end.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
