package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper sleeps for short, exact times. A Go timer in an otherwise idle
// process fires when epoll_wait times out, and epoll_wait counts in
// milliseconds: on the box this was written on time.Sleep of 20-300 us
// woke 950 us late at the median when idle (40 us under load, where the
// scheduler checks timers at every switch). A timerfd read through the
// poller is the other way round: 30 us late when idle, but the poller is
// rarely asked while every P has work. sleep waits for whichever of the
// two fires first. The paced phase needs that, or its latencies are the
// sleep's.
type sleeper struct {
	f    *os.File
	fd   uintptr       // kept beside f: File.Fd would switch the descriptor to blocking mode
	kick chan struct{} // the timerfd expired
}

type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1

// newSleeper opens the timerfd and starts the goroutine that reads it
// through the poller; close ends the goroutine.
func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	s := &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd, kick: make(chan struct{}, 1)}
	go func() {
		var expirations [8]byte
		for {
			if _, err := s.f.Read(expirations[:]); err != nil {
				return
			}
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}()
	return s, nil
}

// sleep blocks the calling goroutine for about d; it may return early
// on a stale expiry, so callers re-check the clock.
func (s *sleeper) sleep(d time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(d.Nanoseconds())}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	t := time.NewTimer(d)
	select {
	case <-s.kick:
	case <-t.C:
	}
	t.Stop()
}

func (s *sleeper) close() { s.f.Close() }
