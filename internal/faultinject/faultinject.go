// Package faultinject is the seeded, deterministic fault-injection harness
// the pipeline's resilience is tested against (docs/faults.md). It wraps a
// pfs.Store and injects faults — transient errors, permanent errors, short
// reads, bit-flip corruption, added latency — according to a schedule
// derived purely from (seed, object, offset, attempt):
//
//   - Whether a read *site* (object, offset) faults, and how, is a pure
//     hash of the seed and the site. The decision does not depend on
//     wall-clock time, goroutine scheduling or call order across ranks, so
//     a chaos run is reproducible from its seed alone even though the
//     pipeline's ranks race freely.
//   - Whether a faulty site *still* faults depends on how many times that
//     site has been read: transient faults (and short reads, and
//     corruption) heal after Config.FaultAttempts reads, permanent faults
//     never do. This is what makes "retry with backoff" testable: the
//     retry IS the heal.
//
// Injected corruption flips the exponent bits of one float32 word in the
// read buffer to the all-ones pattern, producing a non-finite value that
// quake.DecodeStepInto's record validation detects (pfs.ErrCorrupt).
// Bit flips that keep values finite and plausible are indistinguishable
// from data and deliberately out of scope — see docs/faults.md.
//
// A nil *Store passes every call straight through, and the wrapper is
// simply not installed in production paths, so the happy path carries
// zero overhead when injection is disabled.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// Kind enumerates the injected fault classes.
type Kind int

// The injectable fault classes, in schedule-priority order.
const (
	// KindNone marks a clean read.
	KindNone Kind = iota
	// KindPermanent fails the site on every attempt (pfs.ErrPermanent).
	KindPermanent
	// KindTransient fails the site's first FaultAttempts reads
	// (pfs.ErrTransient), then heals.
	KindTransient
	// KindShortRead fills a prefix of the buffer and errors
	// (pfs.ErrShortRead, transient) for the first FaultAttempts reads.
	KindShortRead
	// KindCorrupt returns success with one float32 word's exponent bits
	// flipped to all-ones for the first FaultAttempts reads — detectable
	// downstream by record validation, healed by a re-read.
	KindCorrupt
	// KindLatency delays the read by Config.Latency, then succeeds.
	KindLatency
)

// String names the fault class for logs and test output.
func (k Kind) String() string {
	switch k {
	case KindPermanent:
		return "permanent"
	case KindTransient:
		return "transient"
	case KindShortRead:
		return "shortread"
	case KindCorrupt:
		return "corrupt"
	case KindLatency:
		return "latency"
	}
	return "none"
}

// Config is a seeded fault schedule. Probabilities are per read site
// (object, offset) and are evaluated in the order permanent, transient,
// short read, corrupt, latency; their sum must be <= 1.
type Config struct {
	// Seed selects the schedule; equal seeds give equal schedules.
	Seed uint64

	// PPermanent is the probability a site fails every attempt.
	PPermanent float64
	// PTransient is the probability a site fails its first FaultAttempts
	// reads with a transient error.
	PTransient float64
	// PShortRead is the probability a site's first FaultAttempts reads
	// return short.
	PShortRead float64
	// PCorrupt is the probability a site's first FaultAttempts reads
	// return detectably corrupted bytes.
	PCorrupt float64
	// PLatency is the probability a read sleeps Latency before succeeding.
	PLatency float64

	// FaultAttempts is how many reads of a faulty (non-permanent) site
	// fail before it heals (default 1: the first retry succeeds).
	FaultAttempts int

	// Latency is the injected delay for KindLatency sites.
	Latency time.Duration

	// Match restricts injection to objects it accepts (nil = all). Use it
	// to spare metadata objects so construction-time reads stay clean.
	Match func(name string) bool
}

// Stats counts injected faults by class. Reads is every ReadAt observed.
type Stats struct {
	Reads      int64
	Transients int64
	Permanents int64
	ShortReads int64
	Corrupts   int64
	Latencies  int64
}

// Store wraps a pfs.Store with the fault schedule. A nil *Store is valid
// and injects nothing (both method sets pass through), so callers can keep
// an always-present field that costs nothing when disabled.
type Store struct {
	inner pfs.Store
	cfg   Config

	mu       sync.Mutex
	attempts map[site]int

	reads      atomic.Int64
	transients atomic.Int64
	permanents atomic.Int64
	shortReads atomic.Int64
	corrupts   atomic.Int64
	latencies  atomic.Int64
}

// site identifies one (object, offset) read location.
type site struct {
	name string
	off  int64
}

// Wrap builds an injecting store over inner.
//
//repro:allow deadexport: test injector
func Wrap(inner pfs.Store, cfg Config) *Store {
	if cfg.FaultAttempts <= 0 {
		cfg.FaultAttempts = 1
	}
	return &Store{inner: inner, cfg: cfg, attempts: make(map[site]int)}
}

// Stats returns a snapshot of the injection counters.
//
//repro:allow deadexport: test injector
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Reads:      s.reads.Load(),
		Transients: s.transients.Load(),
		Permanents: s.permanents.Load(),
		ShortReads: s.shortReads.Load(),
		Corrupts:   s.corrupts.Load(),
		Latencies:  s.latencies.Load(),
	}
}

// kindOf evaluates the seeded schedule for a site: a pure function of
// (seed, name, off) — attempt counts only gate healing, not the decision.
func (s *Store) kindOf(name string, off int64) Kind {
	if s.cfg.Match != nil && !s.cfg.Match(name) {
		return KindNone
	}
	// 53 uniform bits -> [0, 1).
	u := float64(pfs.HashSite(s.cfg.Seed, name, off, 0)>>11) / (1 << 53)
	for _, th := range []struct {
		p float64
		k Kind
	}{
		{s.cfg.PPermanent, KindPermanent},
		{s.cfg.PTransient, KindTransient},
		{s.cfg.PShortRead, KindShortRead},
		{s.cfg.PCorrupt, KindCorrupt},
		{s.cfg.PLatency, KindLatency},
	} {
		if u < th.p {
			return th.k
		}
		u -= th.p
	}
	return KindNone
}

// bump increments and returns the site's read count (1-based).
func (s *Store) bump(name string, off int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := site{name, off}
	s.attempts[k]++
	return s.attempts[k]
}

// Size implements pfs.Store. Probes share the schedule with reads at the
// pseudo-offset -1, so a transient-faulted object can also fail its size
// probe and heal on retry.
func (s *Store) Size(name string) (int64, error) {
	if s == nil {
		panic("faultinject: Size on nil Store (wrap the inner store or keep using it directly)")
	}
	switch s.kindOf(name, -1) {
	case KindTransient:
		if s.bump(name, -1) <= s.cfg.FaultAttempts {
			s.transients.Add(1)
			return 0, fmt.Errorf("faultinject: injected transient size-probe failure of %q: %w", name, pfs.ErrTransient)
		}
	case KindPermanent:
		s.permanents.Add(1)
		return 0, fmt.Errorf("faultinject: injected permanent size-probe failure of %q: %w", name, pfs.ErrPermanent)
	}
	return s.inner.Size(name)
}

// ReadAt implements pfs.Store, applying the seeded schedule to the
// (object, offset) site before delegating to the wrapped store.
func (s *Store) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	s.reads.Add(1)
	switch s.kindOf(name, off) {
	case KindPermanent:
		s.permanents.Add(1)
		return fmt.Errorf("faultinject: injected permanent read failure of %q at %d: %w", name, off, pfs.ErrPermanent)
	case KindTransient:
		if s.bump(name, off) <= s.cfg.FaultAttempts {
			s.transients.Add(1)
			return fmt.Errorf("faultinject: injected transient read failure of %q at %d: %w", name, off, pfs.ErrTransient)
		}
	case KindShortRead:
		if s.bump(name, off) <= s.cfg.FaultAttempts {
			s.shortReads.Add(1)
			// Model the torn read faithfully: the prefix really is filled.
			n := len(buf) / 2
			if err := s.inner.ReadAt(c, name, off, buf[:n]); err != nil {
				return err
			}
			return fmt.Errorf("faultinject: injected short read of %q [%d,%d): got %d bytes: %w (%w)",
				name, off, off+int64(len(buf)), n, pfs.ErrShortRead, pfs.ErrTransient)
		}
	case KindCorrupt:
		if s.bump(name, off) <= s.cfg.FaultAttempts {
			if err := s.inner.ReadAt(c, name, off, buf); err != nil {
				return err
			}
			s.corrupts.Add(1)
			corruptWord(buf, pfs.HashSite(s.cfg.Seed, name, off, 1))
			return nil
		}
	case KindLatency:
		s.latencies.Add(1)
		if s.cfg.Latency > 0 {
			time.Sleep(s.cfg.Latency)
		}
	}
	return s.inner.ReadAt(c, name, off, buf)
}

// Write implements pfs.Store (pass-through; the fault model targets the
// read path).
func (s *Store) Write(name string, data []byte) error {
	return s.inner.Write(name, data)
}

// corruptWord flips the exponent bits of one little-endian float32 word
// (picked by h) to all-ones, turning it into a NaN/Inf that record
// validation detects. A word whose exponent bits are already all-ones gets
// a mantissa bit flipped instead (still non-finite), so the corruption
// always changes the buffer. Buffers too small to hold a word get a
// whole-byte flip.
func corruptWord(buf []byte, h uint64) {
	if len(buf) < 4 {
		if len(buf) > 0 {
			buf[int(h%uint64(len(buf)))] ^= 0xff
		}
		return
	}
	w := int(h % uint64(len(buf)/4))
	b2, b3 := buf[4*w+2]|0x80, buf[4*w+3]|0x7f
	if b2 == buf[4*w+2] && b3 == buf[4*w+3] {
		buf[4*w] ^= 0x01
	}
	buf[4*w+2], buf[4*w+3] = b2, b3
}
