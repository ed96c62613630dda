package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// pinEnv marks a process that already runs under the benchmark's CPU
// affinity; its value is the CPU.
const pinEnv = "PERFBENCH_CPU"

// pinToOneCPU restricts the benchmark to the highest-numbered CPU it
// may use and re-executes it, so that every thread of the benchmark and
// of the children it starts inherits that single CPU, and the Go
// runtime of each process starts with GOMAXPROCS=1. It returns only if
// the process is already pinned.
func pinToOneCPU() error {
	if os.Getenv(pinEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("empty CPU affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), pinEnv+"="+strconv.Itoa(cpu))
	return syscall.Exec(exe, os.Args, env)
}

// procSample is what /proc tells about a process at one instant.
type procSample struct {
	userTicks, sysTicks int64
	syscr, syscw        int64
	ctxSwitches         int64 // voluntary + involuntary, summed over live threads
	threads             int64
	rssKB               int64
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command: state is field 3, utime 14, stime 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short %s/stat", dir)
	}
	s.userTicks, _ = strconv.ParseInt(f[11], 10, 64)
	s.sysTicks, _ = strconv.ParseInt(f[12], 10, 64)
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		s.syscr = procField(io, "syscr:")
		s.syscw = procField(io, "syscw:")
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.threads = procField(status, "Threads:")
	s.rssKB = procField(status, "VmRSS:")
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			s.ctxSwitches += procField(b, "voluntary_ctxt_switches:") + procField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	return s, nil
}

// procField returns the integer after key at the start of a line.
func procField(b []byte, key string) int64 {
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
