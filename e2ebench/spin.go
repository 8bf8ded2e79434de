// Idle spinners. On a virtual machine a halted vCPU is woken by the
// hypervisor only after a scheduling delay (reported as steal time),
// and a server answering thousands of small requests halts and wakes
// its vCPUs thousands of times a second: on a shared 2-vCPU guest that
// delay swamped every latency the benchmark measures, and it varied
// from run to run with the host's load. One SCHED_IDLE spinner per
// CPU keeps the vCPUs from halting. SCHED_IDLE threads run only when
// nothing else is runnable, so any server or client thread that wakes
// takes the CPU at once; the spinners' own CPU time belongs to no
// measured process.

package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// spinFlag re-executes the benchmark binary as one spinner.
const spinFlag = "--idle-spinner"

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// spin never returns: it lowers its thread to SCHED_IDLE and loops.
func spin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		os.Exit(3) // never spin at normal priority
	}
	for {
	}
}

// startSpinners starts one spinner process per CPU.
func startSpinners() (*procSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ps := &procSet{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinFlag)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if _, err := ps.launch("spinner", "spinner", "", cmd); err != nil {
			ps.stop()
			return nil, err
		}
	}
	return ps, nil
}
