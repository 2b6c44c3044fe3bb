package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the simulator, recorded by the benchmark
// around the call. Parent is the index of the enclosing span, -1 at a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans is tracing off: start and end do nothing.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its index.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(s.list) - 1
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id].End = now
	s.mu.Unlock()
}

// durations returns the length, in seconds, of every closed span named
// name, in start order.
func (s *spans) durations(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// selfSeconds sums, per span name, each span's duration minus the time
// its child spans cover.
func (s *spans) selfSeconds() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 && sp.End >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	self := map[string]float64{}
	for i, sp := range s.list {
		if sp.End < 0 {
			continue
		}
		if d := sp.End - sp.Start - child[i]; d > 0 {
			self[sp.Name] += float64(d) / 1e9
		}
	}
	return self
}

// printSelf prints the span names with the most self time.
func (s *spans) printSelf(limit int) {
	self := s.selfSeconds()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	if len(names) > limit {
		names = names[:limit]
	}
	fmt.Println("span self time (s):")
	for _, n := range names {
		fmt.Printf("  %-40s %10.4f\n", n, self[n])
	}
}

// write saves the spans as JSON lines.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
