package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostInfo identifies the machine and build a result was measured on. Two
// results are comparable only when their host blocks agree in everything but
// the commit.
type hostInfo struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpuModel"`
}

func currentHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		CPUModel:   cpuModel(),
	}
}

// buildCommit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ, 100
// on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time process pid has consumed.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuTimes are the host's cumulative CPU times from the first line of
// /proc/stat, in clock ticks: all of them, and the time stolen by a
// hypervisor to run other guests.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPUTimes(line)
}

func parseCPUTimes(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]; the
	// guest times are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("malformed /proc/stat line %q", line)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealMeter measures the share of the host's CPU time a hypervisor stole
// between its start and a call to share. It reads 0 where /proc/stat cannot
// be read.
type stealMeter struct {
	start cpuTimes
	err   error
}

func startSteal() stealMeter {
	t, err := readCPUTimes()
	return stealMeter{t, err}
}

// maxSteal is the stolen share of CPU time past which a run warns that its
// timings are unreliable: with almost a fifth stolen, library medians
// moved by up to 40% even after calibration, service medians by up to 4
// times.
const maxSteal = 0.05

// share returns the stolen share since start, warning on log past maxSteal.
func (m stealMeter) share(log io.Writer) float64 {
	end, err := readCPUTimes()
	if m.err != nil || err != nil {
		return 0
	}
	s := ratio(float64(end.steal-m.start.steal), float64(end.total-m.start.total))
	if s > maxSteal {
		fmt.Fprintf(log, "perfbench: warning: a hypervisor stole %.0f%% of CPU time during the window; its timings are unreliable\n", 100*s)
	}
	return s
}

// procMemory returns a memory field of /proc/<pid>/status, such as VmRSS
// (resident set size) or VmHWM (its peak), in bytes.
func procMemory(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed %s in /proc/%d/status: %w", field, pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler records a process's resident set size every interval until
// stopped.
type rssSampler struct {
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
	samples  []float64 // MiB; read only after done
}

func sampleRSS(pid int, interval time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if rss, err := procMemory(pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, float64(rss)/(1<<20))
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit; it may be called
// more than once.
func (s *rssSampler) stop() {
	s.quitOnce.Do(func() { close(s.quit) })
	<-s.done
}

// median stops the sampler and returns the median sample in MiB.
func (s *rssSampler) median() float64 {
	s.stop()
	return median(s.samples)
}

// selfCPU returns this process's user plus system CPU time at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
