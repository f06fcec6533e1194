// Package units provides the physical quantities used throughout the
// Roadrunner models: simulated time, data sizes, bandwidths, clock
// frequencies and floating-point rates.
//
// Simulated time is an integer count of picoseconds. Picosecond resolution
// comfortably represents both a 3.2 GHz SPU cycle (312.5 ps, rounded to
// 312 ps or expressed exactly via FemtoCycles helpers) and multi-second
// application runs (int64 picoseconds span ±106 days), while keeping every
// arithmetic operation exact and deterministic.
package units

import (
	"fmt"
	"math"
)

// Time is a duration or instant of simulated time, in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t expressed in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts a floating-point number of seconds to a Time,
// rounding to the nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromNanoseconds converts a floating-point number of nanoseconds to a Time.
func FromNanoseconds(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// FromMicroseconds converts a floating-point number of microseconds to a Time.
func FromMicroseconds(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case abs >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	case abs >= Nanosecond:
		return fmt.Sprintf("%.6gns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Size is a quantity of data in bytes.
type Size int64

// Common sizes. These are binary units (KiB etc.) but keep the customary
// HPC spelling (KB) used by the paper.
const (
	Byte Size = 1
	KB   Size = 1024 * Byte
	MB   Size = 1024 * KB
	GB   Size = 1024 * MB
)

// Bytes returns the size as a float64 byte count.
func (s Size) Bytes() float64 { return float64(s) }

// KBytes returns the size in KB (1024 bytes).
func (s Size) KBytes() float64 { return float64(s) / float64(KB) }

// MBytes returns the size in MB.
func (s Size) MBytes() float64 { return float64(s) / float64(MB) }

// GBytes returns the size in GB.
func (s Size) GBytes() float64 { return float64(s) / float64(GB) }

// String renders the size with an auto-selected unit.
func (s Size) String() string {
	abs := s
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= GB && s%GB == 0:
		return fmt.Sprintf("%dGB", int64(s/GB))
	case abs >= MB && s%MB == 0:
		return fmt.Sprintf("%dMB", int64(s/MB))
	case abs >= KB && s%KB == 0:
		return fmt.Sprintf("%dKB", int64(s/KB))
	case abs >= GB:
		return fmt.Sprintf("%.4gGB", s.GBytes())
	case abs >= MB:
		return fmt.Sprintf("%.4gMB", s.MBytes())
	case abs >= KB:
		return fmt.Sprintf("%.4gKB", s.KBytes())
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidth units, in the decimal (vendor datasheet) convention the
// paper uses: 1 GB/s = 1e9 bytes/s.
const (
	BytePerSec Bandwidth = 1
	KBPerSec   Bandwidth = 1e3
	MBPerSec   Bandwidth = 1e6
	GBPerSec   Bandwidth = 1e9
)

// MBps returns the bandwidth in MB/s (decimal).
func (b Bandwidth) MBps() float64 { return float64(b) / float64(MBPerSec) }

// GBps returns the bandwidth in GB/s (decimal).
func (b Bandwidth) GBps() float64 { return float64(b) / float64(GBPerSec) }

// String renders the bandwidth with an auto-selected unit.
func (b Bandwidth) String() string {
	switch {
	case b >= GBPerSec:
		return fmt.Sprintf("%.4gGB/s", b.GBps())
	case b >= MBPerSec:
		return fmt.Sprintf("%.4gMB/s", b.MBps())
	default:
		return fmt.Sprintf("%.4gB/s", float64(b))
	}
}

// TransferTime returns the time to move size bytes at bandwidth b,
// excluding any fixed latency. A non-positive bandwidth yields zero time
// so that pure-latency links can be expressed with Bandwidth(0).
func (b Bandwidth) TransferTime(size Size) Time {
	if b <= 0 || size <= 0 {
		return 0
	}
	return FromSeconds(float64(size) / float64(b))
}

// Frequency is a clock rate in Hz.
type Frequency float64

// Common frequency units.
const (
	Hz  Frequency = 1
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// Cycles returns the duration of n clock periods. The multiplication is
// carried out in float64 before rounding so that the error does not
// accumulate per cycle (3.2 GHz is a 312.5 ps period; 2 cycles must be
// 625 ps, not 624 ps).
func (f Frequency) Cycles(n int64) Time {
	if f <= 0 {
		return 0
	}
	return FromSeconds(float64(n) / float64(f))
}

// String renders the frequency.
func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.4gGHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.4gMHz", float64(f)/float64(MHz))
	default:
		return fmt.Sprintf("%.4gHz", float64(f))
	}
}

// Flops is a floating-point rate in flop/s.
type Flops float64

// Common flop-rate units.
const (
	FlopPerSec Flops = 1
	MFlops     Flops = 1e6
	GFlops     Flops = 1e9
	TFlops     Flops = 1e12
	PFlops     Flops = 1e15
)

// MF returns the rate in Mflop/s.
func (f Flops) MF() float64 { return float64(f) / float64(MFlops) }

// GF returns the rate in Gflop/s.
func (f Flops) GF() float64 { return float64(f) / float64(GFlops) }

// TF returns the rate in Tflop/s.
func (f Flops) TF() float64 { return float64(f) / float64(TFlops) }

// PF returns the rate in Pflop/s.
func (f Flops) PF() float64 { return float64(f) / float64(PFlops) }

// String renders the rate with an auto-selected unit.
func (f Flops) String() string {
	switch {
	case f >= PFlops:
		return fmt.Sprintf("%.4gPF/s", f.PF())
	case f >= TFlops:
		return fmt.Sprintf("%.4gTF/s", f.TF())
	case f >= GFlops:
		return fmt.Sprintf("%.4gGF/s", f.GF())
	case f >= MFlops:
		return fmt.Sprintf("%.4gMF/s", f.MF())
	default:
		return fmt.Sprintf("%.4gF/s", float64(f))
	}
}

// Power is electrical power in watts.
type Power float64

// Common power units.
const (
	Watt     Power = 1
	Kilowatt Power = 1e3
	Megawatt Power = 1e6
)

// KW returns the power in kilowatts.
func (p Power) KW() float64 { return float64(p) / float64(Kilowatt) }

// MW returns the power in megawatts.
func (p Power) MW() float64 { return float64(p) / float64(Megawatt) }

// String renders the power.
func (p Power) String() string {
	switch {
	case p >= Megawatt:
		return fmt.Sprintf("%.4gMW", p.MW())
	case p >= Kilowatt:
		return fmt.Sprintf("%.4gkW", p.KW())
	default:
		return fmt.Sprintf("%.4gW", float64(p))
	}
}
