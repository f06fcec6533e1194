// Package cell assembles the Cell processor models the paper compares:
// the original Cell Broadband Engine (as in the PlayStation 3 and QS21
// blades) and the PowerXCell 8i used in Roadrunner's QS22 blades.
//
// A chip couples one PPE, eight SPEs (via the spu pipeline model), the
// EIB, and a memory controller (Rambus XDR on the Cell BE, DDR2-800 on
// the PowerXCell 8i). Peak rates, STREAM TRIAD bandwidths and memtime
// latencies for Table III and Table II derive from these components.
package cell

import (
	"roadrunner/internal/isa"
	"roadrunner/internal/memmodel"
	"roadrunner/internal/params"
	"roadrunner/internal/spu"
	"roadrunner/internal/units"
)

// Variant selects the chip generation.
type Variant int

// The two Cell implementations the paper compares.
const (
	CellBE Variant = iota
	PowerXCell8i
)

// String names the variant.
func (v Variant) String() string {
	if v == CellBE {
		return "Cell BE"
	}
	return "PowerXCell 8i"
}

// MemoryKind is the chip's external memory technology.
type MemoryKind int

// Memory technologies.
const (
	XDR MemoryKind = iota
	DDR2_800
)

// String names the memory kind.
func (k MemoryKind) String() string {
	if k == XDR {
		return "Rambus XDR"
	}
	return "DDR2-800"
}

// Chip is one Cell processor.
type Chip struct {
	Variant  Variant
	SPU      *spu.Model
	NumSPEs  int
	Clock    units.Frequency
	Memory   MemoryKind
	MaxBlade units.Size // maximum memory per blade this controller supports
	MemBW    units.Bandwidth
}

// New builds the chip model for a variant.
func New(v Variant) *Chip {
	c := &Chip{
		Variant: v,
		NumSPEs: 8,
		Clock:   params.CellClock,
		MemBW:   params.CellMemBandwidth,
	}
	switch v {
	case CellBE:
		c.SPU = spu.CellBE()
		c.Memory = XDR
		// "only Rambus XDR memories were supported, limiting the memory
		// capacity to 2GB per blade."
		c.MaxBlade = 2 * units.GB
	case PowerXCell8i:
		c.SPU = spu.PowerXCell8i()
		c.Memory = DDR2_800
		// "This change enables the PowerXCell 8i to support up to 32GB of
		// memory in a blade."
		c.MaxBlade = 32 * units.GB
	}
	return c
}

// PPEPeakDP returns the PPE's peak double-precision rate (6.4 GF/s).
func (c *Chip) PPEPeakDP() units.Flops {
	return units.Flops(float64(c.Clock) * params.PPEDPFlopsPerCycle)
}

// SPEPeakDP returns one SPE's nominal peak DP rate.
func (c *Chip) SPEPeakDP() units.Flops {
	// The nominal (datasheet) rate; the Cell BE cannot sustain it because
	// of the FPD stall — see SPEAggregateDPSustained.
	return units.Flops(float64(c.Clock) * params.SPEDPFlopsPerCycle)
}

// SPEAggregateDPSustained returns the pipeline-model-derived sustained DP
// peak of all SPEs: 102.4 GF/s for the PowerXCell 8i, 14.6 GF/s for the
// Cell BE (the FPD unit's 7-cycle repetition).
func (c *Chip) SPEAggregateDPSustained() units.Flops {
	return c.SPU.PeakDPFlops() * units.Flops(c.NumSPEs)
}

// PeakDP returns the chip peak used by Table II: PPE + 8 SPEs at their
// architectural issue rates (108.8 GF/s for the PowerXCell 8i).
func (c *Chip) PeakDP() units.Flops {
	if c.Variant == CellBE {
		// Table-II-style accounting uses sustained SPE DP on the Cell BE
		// too (the paper quotes 21.0 total = 14.6 SPE + 6.4 PPE).
		return c.PPEPeakDP() + params.CellBESPEAggregateDP
	}
	return c.PPEPeakDP() + c.SPEPeakDP()*units.Flops(c.NumSPEs)
}

// PeakSP returns the chip's single-precision peak (217.6 GF/s: 204.8 SPE
// + 12.8 PPE).
func (c *Chip) PeakSP() units.Flops {
	return units.Flops(float64(c.Clock)*4) + params.CellBESPEAggregateSP
}

// LocalStorePeak returns the theoretical local-store bandwidth: one
// 128-bit load per cycle (51.2 GB/s).
func (c *Chip) LocalStorePeak() units.Bandwidth {
	return units.Bandwidth(float64(params.LocalStoreLoadBytes) * float64(c.Clock))
}

// speTriadProgram builds the STREAM TRIAD inner loop as optimized SPE
// code executes it from local store: per 16-byte vector element, two
// quadword loads, an alignment shuffle per load (the reference STREAM
// arrays are not quadword-aligned), a DP FMA, and a store; plus loop
// control every four elements. The schedule is software-pipelined — the
// shuffle, FMA and store of an element are emitted 2, 4 and 8 elements
// after its loads — so in steady state the odd (load/store/shuffle/
// branch) pipe is the bottleneck, exactly as on real silicon.
func speTriadProgram(elements int) isa.Program {
	b := isa.NewBuilder()
	addr := isa.Reg(120)
	// Register banks: element k uses bank k mod 16, six registers each.
	bank := func(k int) isa.Reg { return isa.Reg((k % 16) * 6) }
	for k := 0; k < elements; k++ {
		rb := bank(k)
		b.I(isa.LS, rb, addr)   // load b[k]
		b.I(isa.LS, rb+1, addr) // load c[k]
		if k%4 == 0 {
			// Hoisted pointer advance: by the time the next group's
			// loads issue, the new address has long cleared the FX unit
			// (real code uses d-form offsets plus one early increment).
			b.I(isa.FX2, addr, addr)
		}
		if j := k - 2; j >= 0 {
			rj := bank(j)
			b.I(isa.SHUF, rj+2, rj, rj)     // align b[j]
			b.I(isa.SHUF, rj+3, rj+1, rj+1) // align c[j]
		}
		if j := k - 4; j >= 0 {
			rj := bank(j)
			b.I(isa.FPD, rj+4, rj+2, rj+3) // a[j] = b[j] + s*c[j]
		}
		if j := k - 8; j >= 0 {
			rj := bank(j)
			b.I(isa.LS, isa.NoReg, rj+4) // store a[j]
		}
		if k%4 == 3 {
			b.I(isa.BR, isa.NoReg, addr) // loop branch
		}
	}
	return b.Program()
}

// SPETriad returns the sustained local-store TRIAD bandwidth derived by
// running the triad inner loop through the SPU pipeline model and
// measuring the steady-state issue rate (skipping the software-pipeline
// prologue and epilogue, as a long STREAM run amortises them). Matches
// Table III's 29.28 GB/s on the PowerXCell 8i.
func (c *Chip) SPETriad() units.Bandwidth {
	const elements = 512
	prog := speTriadProgram(elements)
	res := c.SPU.Run(prog)
	// Locate the first instruction of elements 64 and 448 and use the
	// issue-cycle distance between them as the steady-state window.
	instrPerElement := func(k int) int {
		// Elements emit 2 loads, +2 shuffles after 2, +1 FPD after 4,
		// +1 store after 8, +2 loop ops every 4th. Count by rebuilding.
		n := 0
		for e := 0; e < k; e++ {
			n += 2
			if e%4 == 0 {
				n++ // hoisted pointer advance
			}
			if e >= 2 {
				n += 2
			}
			if e >= 4 {
				n++
			}
			if e >= 8 {
				n++
			}
			if e%4 == 3 {
				n++ // loop branch
			}
		}
		return n
	}
	loWin, hiWin := 64, 448
	lo, hi := instrPerElement(loWin), instrPerElement(hiWin)
	cycles := res.IssueCycles[hi] - res.IssueCycles[lo]
	secs := c.SPU.Time(cycles).Seconds()
	bytes := float64(hiWin-loWin) * 48 // 3 arrays x 16B per element
	return units.Bandwidth(bytes / secs)
}

// PPETriad returns the PPE's sustained TRIAD bandwidth. The PPE is an
// in-order core with very limited memory-level parallelism; its bus
// efficiency is calibrated against Table III (0.89 GB/s of 25.6 GB/s).
func (c *Chip) PPETriad() units.Bandwidth {
	return memmodel.StreamModel{
		Peak:          c.MemBW,
		BusEfficiency: 0.0464,
		WriteAllocate: true,
	}.Triad()
}

// PPEHierarchy returns the PPE cache hierarchy for memtime.
func (c *Chip) PPEHierarchy() memmodel.Hierarchy {
	return memmodel.Hierarchy{
		Levels: []memmodel.Level{
			{Name: "L1D", Size: params.PPEL1D, Latency: units.FromNanoseconds(1.6)},
			{Name: "L2", Size: params.PPEL2, Latency: units.FromNanoseconds(8.8)},
		},
		MemLatency: params.PPEMemLatency,
	}
}

// PPEMemLatency returns the PPE's main-memory pointer-chase latency.
func (c *Chip) PPEMemLatency() units.Time {
	h := c.PPEHierarchy()
	return h.ChaseLatency(4 * units.MB)
}

// SPELocalStoreLatency returns the local-store pointer-chase latency
// (memtime run inside the local store; Table III's 9.4 ns). The chase
// hop is a dependent LS load plus the word-extract/address-formation
// sequence; the measured value is used directly as calibration since the
// extraction sequence is compiler-dependent.
func (c *Chip) SPELocalStoreLatency() units.Time {
	return params.SPELocalStoreLat
}
