package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// procCPU returns the CPU time a process has consumed so far, summed
// over its live threads, from /proc/<pid>/task/*/schedstat: the
// scheduler's own nanosecond clock, where /proc/<pid>/stat counts 10 ms
// ticks — too coarse for a sub-window of half a second. (A thread that
// has exited takes its time with it; Go programs keep their threads.)
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ESRCH) {
			continue // the thread ended between the listing and the read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: empty", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: %w", pid, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// confineToOneCPU restricts every thread of this process to a single
// processor — the highest-numbered one it may use, away from CPU 0's
// interrupts — and the Go scheduler to one P. Threads and children
// started afterwards inherit the mask, so a cludeserve child sees a
// one-processor box and runs with GOMAXPROCS 1 on the same processor as
// its load generator. It returns the processor chosen.
//
// Why: on a shared host with two virtual processors, a client and a
// server that each own two Ps measure where the kernel places four
// threads and how fast the hypervisor wakes a halted processor, not the
// program (README.md, "One processor", has the A/A figures). On one
// processor a request is a strict hand-over — client, server, client —
// with no idle processor to wake and no placement to vary.
func confineToOneCPU() (int, error) {
	var allowed, one [16]uint64 // 1024 processors
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := range allowed {
		if allowed[i] != 0 {
			cpu = i*64 + bits.Len64(allowed[i]) - 1
		}
	}
	if cpu < 0 {
		return 0, errors.New("sched_getaffinity: empty mask")
	}
	one[cpu/64] = 1 << (cpu % 64)
	// sched_setaffinity moves one thread. Two passes over the thread list
	// catch a thread the runtime started during the first; every later
	// thread is cloned from a confined one.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}

// procPeakRSS returns the process's resident-set high-water mark
// (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q: %w", pid, f[0], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// loadAverage returns the 1-minute load average.
func loadAverage() (float64, error) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("/proc/loadavg: empty")
	}
	return strconv.ParseFloat(f[0], 64)
}

func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// dieWithParent makes the kernel kill the child when this process dies,
// so even a SIGKILLed benchmark leaves no server behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// preciseSleep blocks the calling thread in nanosleep(2). Go's own
// timers are serviced from the network poller with millisecond
// granularity, which would make an open-loop generator about a
// millisecond late on every request; the kernel's high-resolution timer
// is late by tens of microseconds and burns no CPU while waiting.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only makes the request early by the remainder
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// size, so a peak can be read per phase. It is best effort: where the
// kernel refuses, the peak stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
