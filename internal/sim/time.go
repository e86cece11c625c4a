// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel schedules cooperative processes (each running on a pooled
// runtime coroutine, with exactly one runnable at any instant) against a
// virtual clock.
// Processes block by sleeping, by waiting on queues, signals and mutexes,
// or by using a Resource; the kernel advances virtual time only when every
// process is blocked. Event ordering is fully deterministic: events fire in
// (time, creation-sequence) order, so a simulation with a fixed seed always
// produces the same trace.
//
// This kernel is the substrate on which the Spritely NFS reproduction runs
// its clients, servers, disks and network: the protocol code is ordinary Go
// code, and only the *cost* of primitives (network transit, disk access,
// CPU service) is simulated.
package sim

import "fmt"

// Time is an instant of virtual time, in microseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e3 }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }
