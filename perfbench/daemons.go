package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/collector"
)

// daemon is one running pintd or pintgate process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	// out collects everything the process prints, for error reports.
	mu   sync.Mutex
	out  bytes.Buffer
	done chan struct{}
}

// startDaemon runs bin with args and waits until it has printed a line
// starting with each of the wanted prefixes; it returns the rest of each
// such line's first word after the prefix (the bound address).
func startDaemon(bin string, args []string, wants ...string) (*daemon, []string, error) {
	d := &daemon{name: filepath.Base(bin), cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// A daemon must not outlive the benchmark, even one killed midway.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	d.cmd.Stderr = &lockedWriter{d: d}
	if err := d.cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting %s: %w", d.name, err)
	}
	found := make(chan []string, 1)
	go func() {
		defer close(d.done)
		got := make([]string, len(wants))
		left := len(wants)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.out.WriteString(line + "\n")
			d.mu.Unlock()
			for i, w := range wants {
				if got[i] == "" && strings.HasPrefix(line, w) {
					got[i] = strings.TrimSuffix(strings.Fields(line[len(w):])[0], ",")
					if left--; left == 0 {
						found <- got
					}
				}
			}
		}
		// Drain to EOF so the process never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
		d.cmd.Wait()
	}()
	select {
	case got := <-found:
		return d, got, nil
	case <-d.done:
		return nil, nil, fmt.Errorf("%s exited during start-up:\n%s", d.name, d.output())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, nil, fmt.Errorf("%s did not announce %q within 20s:\n%s", d.name, wants, d.output())
	}
}

type lockedWriter struct{ d *daemon }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.out.Write(p)
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain with SIGTERM and waits until it has
// exited, killing it if it takes longer than 15 seconds.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTime is a process's user plus system time, from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU is this process's user plus system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
}

// get fetches url and returns the body; a non-200 status is an error.
func get(url string) ([]byte, http.Header, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return body, resp.Header, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, resp.Header, nil
}

// waitHealthy polls /healthz until it answers 200 with the plan hash
// (pintd) or just 200 (pintgate, planHash "").
func waitHealthy(base, planHash string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		body, _, err := get(base + "/healthz")
		if err == nil {
			var h struct {
				OK       bool   `json:"ok"`
				PlanHash string `json:"plan_hash"`
			}
			if jerr := json.Unmarshal(body, &h); jerr == nil && h.OK && (planHash == "" || h.PlanHash == planHash) {
				return nil
			}
			if planHash != "" && h.PlanHash != "" && h.PlanHash != planHash {
				return fmt.Errorf("%s runs plan %s, the generator %s", base, h.PlanHash, planHash)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 20s: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stats reads a daemon's pint.stats.v1 document.
func stats(base string) (collector.StatsV1, error) {
	var doc collector.StatsV1
	body, _, err := get(base + "/stats")
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("%s/stats: %w", base, err)
	}
	if doc.Schema != collector.StatsSchemaV1 {
		return doc, fmt.Errorf("%s/stats: schema %q, want %q", base, doc.Schema, collector.StatsSchemaV1)
	}
	return doc, nil
}

// memStats is the part of runtime.MemStats the benchmark reads from a
// daemon's /debug/pprof/heap?gc=1&debug=1 page.
type memStats struct {
	HeapAlloc     float64
	Mallocs       float64
	GCCPUFraction float64
}

// heap forces a GC in the daemon and reads its MemStats.
func heap(base string) (memStats, error) {
	var m memStats
	body, _, err := get(base + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return m, err
	}
	fields := map[string]*float64{"HeapAlloc": &m.HeapAlloc, "Mallocs": &m.Mallocs, "GCCPUFraction": &m.GCCPUFraction}
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if p := fields[name]; ok && p != nil {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return m, fmt.Errorf("heap page: %s = %q", name, val)
			}
			*p = v
			seen++
		}
	}
	if seen != len(fields) {
		return m, fmt.Errorf("heap page of %s lacks MemStats", base)
	}
	return m, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
