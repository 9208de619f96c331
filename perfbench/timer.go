package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer sleeps with microsecond precision. Go's own timers wake up to a
// millisecond late (the netpoller waits in whole milliseconds), which would
// charge the generator's lateness to every open-loop latency; a sleep in a
// blocking syscall would instead hold the goroutine's P and stall the other
// connections. A timerfd read through the runtime poller parks the goroutine
// and wakes it when the kernel's high-resolution timer fires.
type timer struct {
	fd int
	f  *os.File
}

func newTimer() (*timer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, uintptr(clockMonotonic), uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

const clockMonotonic = 1

type itimerspec struct {
	interval, value syscall.Timespec
}

func (t *timer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	if _, err := t.f.Read(buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (t *timer) Close() error { return t.f.Close() }
