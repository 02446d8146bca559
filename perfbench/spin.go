package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// On a virtual machine a vCPU with nothing to run halts, and waking it
// waits for the host to schedule it again; the guest counts that wait as
// steal. The serve open loop leaves the two vCPUs about half idle, and
// on a busy host up to 32% of a serve run was steal, with its latencies
// moving in step. Suite batches, which keep both vCPUs busy, saw 0–6%
// steal at the same times. So every pass runs beside idle spinners, one
// per CPU, under SCHED_IDLE: the kernel runs them only when nothing else
// is runnable and preempts them as soon as anything wakes, so they keep
// the vCPUs from halting without taking CPU from the system under test.
// This is the user-space counterpart of booting the guest with idle=poll.

// spinArg, as the only argument, makes the benchmark's binary the
// spinner child.
const spinArg = "-spin-child"

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// spinChild busy-loops on every CPU under SCHED_IDLE until killed.
func spinChild() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			// Scheduling policy is per thread on Linux: pin the goroutine
			// to its thread and demote that thread (pid 0 = caller).
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: SCHED_IDLE: %v\n", errno)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}

// startSpinners launches the spinner child; killAll stops it with the
// pass's other children.
func (e *env) startSpinners() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	_, err = e.procs.start("spinner", false, self, spinArg)
	return err
}
