package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The reference machine is a small guest on a shared host. Whenever one
// of its CPUs goes idle the host takes the core away, and getting it
// back for the next request costs anything from 50 µs to tens of
// milliseconds, depending on what the host's other guests are doing that
// minute: a loopback exchange that needs 0.3 ms of CPU was measured at
// p50 1.0 / p95 1.6 ms in a good minute and p50 3 / p95 330 ms in a bad
// one, with /proc/stat counting up to 45 % steal on a guest that was
// three-quarters idle. A guest whose CPUs never go idle keeps its cores:
// the same exchange beside busy threads measured p50 0.8 / p95 1.3 ms in
// both kinds of minute, steal under 0.2 %.
//
// So for as long as it measures, the benchmark keeps every CPU it may
// use occupied by a thread of scheduling class SCHED_IDLE. The guest's
// scheduler runs such a thread only when the CPU has nothing else to do
// and takes the CPU back for the daemon the moment the daemon wakes, so
// the daemon and the generator lose nothing to it; the host just never
// sees the guest go to sleep.

const schedIdle = 5 // SCHED_IDLE (linux/sched.h)

type cpuSet [16]uint64 // 1024 CPUs, the kernel's default mask size

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var set cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
		cpus := make([]int, runtime.NumCPU())
		for i := range cpus {
			cpus[i] = i
		}
		return cpus
	}
	var cpus []int
	for c := 0; c < len(set)*64; c++ {
		if set.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// demote pins the calling thread to one CPU and puts it in SCHED_IDLE.
// The caller has locked its goroutine to the thread.
func demote(cpu int) error {
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %v", cpu, e)
	}
	param := struct{ priority int32 }{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", e)
	}
	return nil
}

// keepAwake occupies each of the given CPUs with a SCHED_IDLE process
// (this binary in its hidden "spin" mode) until stop is called; stop
// kills them and returns once every one has ended. They are processes of
// their own so that no busy loop holds one of this runtime's Ps or
// stands in the way of its collector.
func keepAwake(cpus []int) (stop func(), err error) {
	if cpuQuota() {
		fmt.Fprintln(os.Stderr, "bench: a cgroup CPU quota is set; CPUs are not kept awake (the spinners would spend it)")
		return func() {}, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, c := range procs {
			_ = c.Process.Kill()
			_ = c.Wait()
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(self, "spin", "--cpu", strconv.Itoa(cpu))
		c.Stderr = os.Stderr
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("bench: start spinner: %w", err)
		}
		procs = append(procs, c)
	}
	return stop, nil
}

// cpuQuota reports whether a cgroup limits this process's CPU time
// (v2 cpu.max, v1 cpu.cfs_quota_us).
func cpuQuota() bool {
	if raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil && !strings.HasPrefix(string(raw), "max") {
		return true
	}
	raw, err := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	return err == nil && strings.TrimSpace(string(raw)) != "-1"
}

// cmdSpin is the spinner process: one SCHED_IDLE thread on one CPU,
// busy until killed. Where the kernel refuses the scheduling class it
// exits at once and the CPU is left alone: a busy thread of normal
// priority would compete with the daemon.
func cmdSpin(cpu int) error {
	runtime.LockOSThread()
	if err := demote(cpu); err != nil {
		return fmt.Errorf("bench: cpu %d is not kept awake: %w", cpu, err)
	}
	for {
	}
}
