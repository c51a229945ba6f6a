// Package service is a lockhold fixture reproducing the real service
// package's import path so the analyzer's gate applies.
package service

import (
	"sync"
	"time"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	done chan struct{}
	wg   sync.WaitGroup
}

// sendHeld blocks on a send under the lock: flagged.
func (s *store) sendHeld() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while "s.mu" is held`
	s.mu.Unlock()
}

// recvHeld blocks on a receive under a deferred unlock (which only
// releases at return): flagged.
func (s *store) recvHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while "s.mu" is held`
}

// waitHeld parks on a WaitGroup under the lock: flagged.
func (s *store) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want `sync s.wg.Wait while "s.mu" is held`
	s.mu.Unlock()
}

// sleepHeld sleeps under a read lock: flagged.
func (s *store) sleepHeld() {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want `time.Sleep while "s.rw" is held`
	s.rw.RUnlock()
}

// blockingSelectHeld has no default case: flagged.
func (s *store) blockingSelectHeld() {
	s.mu.Lock()
	select { // want `blocking select while "s.mu" is held`
	case <-s.done:
	case s.ch <- 1:
	}
	s.mu.Unlock()
}

// trySendHeld is the sanctioned wake pattern — a default case makes
// the select non-blocking: clean.
func (s *store) trySendHeld() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// unlockFirst releases before blocking: clean.
func (s *store) unlockFirst() int {
	s.mu.Lock()
	n := len(s.ch)
	s.mu.Unlock()
	return n + <-s.ch
}

// branchRelease unlocks on the early-return path before blocking, and
// on the fallthrough path before returning: clean.
func (s *store) branchRelease(fast bool) int {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return <-s.ch
	}
	s.mu.Unlock()
	return 0
}

// spawn hands blocking work to a goroutine; the literal's body does
// not run under the creator's lock: clean.
func (s *store) spawn() {
	s.mu.Lock()
	go func() { s.ch <- 1 }()
	s.mu.Unlock()
}

// justified carries the escape hatch with a reason: suppressed.
func (s *store) justified() {
	s.mu.Lock()
	//lint:ignore lockhold fixture: channel is buffered to the writer count, the send cannot block
	s.ch <- 1
	s.mu.Unlock()
}
