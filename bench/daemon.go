package main

import (
	"bufio"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// buildMapad compiles cmd/mapad into the checkout's build directory —
// or, with compile false, takes the binary already there — and refuses
// one carrying the race detector: every number this benchmark reports
// is for the daemon users run.
func buildMapad(root string, compile bool) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "mapad")
	if compile {
		fmt.Fprintln(os.Stderr, "bench: building cmd/mapad")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/mapad")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("go build ./cmd/mapad: %v\n%s", err, out)
		}
	}
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return "", fmt.Errorf("reading build info of %s: %w", bin, err)
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return "", fmt.Errorf("%s was built with the race detector (check GOFLAGS); refusing to measure it", bin)
		}
	}
	return bin, nil
}

// daemon is one running mapad subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startDaemon launches mapad on a free loopback port and returns once
// /healthz answers 200 with the warm set resident.
func startDaemon(bin, logPath string, args []string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however the benchmark
	// ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			var h struct {
				Warm bool `json:"warm"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && h.Warm {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	tail, _ := os.ReadFile(logPath)
	return nil, fmt.Errorf("mapad on %s never became ready; its output:\n%s", addr, tail)
}

// kill stops the daemon with SIGKILL — the crash serve-durable
// recovers from — and waits until it is gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // exit status of a killed process carries nothing
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU returns the user+system CPU time a process has consumed, read
// from the process's CPU clock: nanoseconds, where /proc/<pid>/stat
// counts 10 ms ticks — too coarse for a 100 ms window.
func procCPU(pid int) (time.Duration, error) {
	// The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
	id := ^int32(pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// heapMB is the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// scrape reads the daemon's unlabelled /metrics series.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
