package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from; .gitignore lists it.
const spanDir = ".bench_build/spans"

// span is one timed call into a layer, recorded by the benchmark around the
// public entry point it calls. Spans of one request or one control cycle
// share a trace ID; Parent is 0 for a root span.
type span struct {
	id, parent, trace int64
	name              string
	start, end        time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; a disabled tracer records nothing and costs
// one branch per call.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// add records a span and returns its ID (0 when tracing is off). A zero
// trace ID starts a new trace named after the span's own ID.
func (t *tracer) add(name string, parent, trace int64, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{id: id, parent: parent, trace: trace, name: name,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
	t.mu.Unlock()
	return id
}

// traceOf returns the trace ID of span id.
func (t *tracer) traceOf(id int64) int64 {
	if !t.on || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].trace
}

// selfTimes returns, per span name, every span's self time in seconds: its
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent == 0 {
			continue
		}
		p := t.spans[s.parent-1]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent-1] += hi - lo
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		self := s.end - s.start - covered[i]
		out[s.name] = append(out[s.name], max(self, 0).Seconds())
	}
	return out
}

// write saves every span as CSV under spanDir and returns the file name.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,trace,name,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.trace, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// usage is a process-wide resource reading: allocations, CPU and GC. The
// difference of two readings is the cost of the work between them,
// generator included.
type usage struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
	cpu                 time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

func (u usage) since(prev usage) usage {
	return usage{
		mallocs: u.mallocs - prev.mallocs,
		bytes:   u.bytes - prev.bytes,
		gcs:     u.gcs - prev.gcs,
		pause:   u.pause - prev.pause,
		cpu:     u.cpu - prev.cpu,
	}
}

// runtimeMetrics turns a usage delta over reqs OK requests into the runtime
// layer's per-layer metrics.
func runtimeMetrics(d usage, reqs int) []metric {
	n := float64(max(reqs, 1))
	return []metric{
		{"runtime.allocs_per_req", "count", float64(d.mallocs) / n, reqs},
		{"runtime.bytes_per_req", "B", float64(d.bytes) / n, reqs},
		{"runtime.cpu_us_per_req", "us", d.cpu.Seconds() * 1e6 / n, reqs},
		{"runtime.gc_cycles", "count", float64(d.gcs), 1},
		{"runtime.gc_pause_ms", "ms", d.pause.Seconds() * 1e3, int(d.gcs)},
	}
}
