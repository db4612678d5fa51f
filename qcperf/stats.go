package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// nearestRank is the p-th percentile by nearest rank: the smallest
// sample with at least p·n samples at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads another process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14 and stime field 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procMemMB reads VmHWM (peak) and VmRSS (current) of a process in
// MiB; pid 0 means this process.
func procMemMB(pid int) (peak, cur float64, err error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmHWM:":
			peak = kb / 1024
		case "VmRSS:":
			cur = kb / 1024
		}
	}
	return peak, cur, nil
}

// benchSpan is one span the benchmark records around a call into the
// program.
type benchSpan struct {
	Name  string            `json:"name"`
	Start int64             `json:"start"` // unix ns
	Dur   int64             `json:"dur"`   // ns
	Args  map[string]string `json:"args,omitempty"`
}

type spanLog struct{ spans []benchSpan }

// record notes a finished span that began at start.
func (l *spanLog) record(name string, start time.Time, args map[string]string) {
	l.spans = append(l.spans, benchSpan{Name: name, Start: start.UnixNano(), Dur: int64(time.Since(start)), Args: args})
}

// benchPid is the Chrome-trace process id of the benchmark's own
// spans, clear of the engine's (coordinator 0, machine m at m+1).
const benchPid = 1000

// writeMergedTrace writes one Chrome trace file holding the engine's
// spans (engineJSON, as obs.WriteChromeTraceFile wrote them; empty
// for none) and the benchmark's own spans, one thread per named track
// of a "benchmark" process. All spans carry absolute timestamps, so
// they share one timeline.
func writeMergedTrace(path string, engineJSON []byte, trackNames []string, tracks [][]benchSpan) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if len(engineJSON) > 0 {
		if err := json.Unmarshal(engineJSON, &doc); err != nil {
			return fmt.Errorf("engine trace: %w", err)
		}
	}
	add := func(v map[string]any) {
		b, _ := json.Marshal(v) // maps of strings and numbers always marshal
		doc.TraceEvents = append(doc.TraceEvents, b)
	}
	add(map[string]any{"ph": "M", "name": "process_name", "pid": benchPid, "tid": 0, "args": map[string]string{"name": "benchmark"}})
	for tid, spans := range tracks {
		add(map[string]any{"ph": "M", "name": "thread_name", "pid": benchPid, "tid": tid, "args": map[string]string{"name": trackNames[tid]}})
		for _, s := range spans {
			add(map[string]any{
				"ph": "X", "name": s.Name, "pid": benchPid, "tid": tid,
				"ts": float64(s.Start) / 1e3, "dur": float64(s.Dur) / 1e3, "args": s.Args,
			})
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
