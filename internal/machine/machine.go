// Package machine assembles the full Roadrunner system: 17 Connected
// Units of 180 triblades plus I/O and service nodes, the InfiniBand
// plant, the Table II characteristics, and the power model behind the
// machine's Green500 placement (437 MFlops/W on LINPACK).
package machine

import (
	"fmt"

	"roadrunner/internal/fabric"
	"roadrunner/internal/params"
	"roadrunner/internal/triblade"
	"roadrunner/internal/units"
)

// Config sizes a Roadrunner-class system.
type Config struct {
	CUs        int
	NodesPerCU int
}

// Full returns the as-built Roadrunner configuration.
func Full() Config {
	return Config{CUs: params.NumCUs, NodesPerCU: params.NodesPerCU}
}

// System is the machine model.
type System struct {
	Config Config
	Node   *triblade.Node
	Fabric *fabric.System
}

// New builds the machine for a configuration.
func New(cfg Config) *System {
	if cfg.CUs < 1 || cfg.CUs > params.MaxCUs {
		panic(fmt.Sprintf("machine: %d CUs", cfg.CUs))
	}
	return &System{
		Config: cfg,
		Node:   triblade.New(),
		Fabric: fabric.NewScaled(cfg.CUs),
	}
}

// Nodes returns the compute-node count (3,060 at full scale).
func (s *System) Nodes() int { return s.Config.CUs * s.Config.NodesPerCU }

// SPEs returns the total SPE count (97,920 at full scale).
func (s *System) SPEs() int { return s.Nodes() * triblade.NumCells * 8 }

// OpteronCores returns the total Opteron core count (12,240).
func (s *System) OpteronCores() int { return s.Nodes() * triblade.NumOpteronCores }

// Cells returns the total PowerXCell 8i count (12,240).
func (s *System) Cells() int { return s.Nodes() * triblade.NumCells }

// PeakDP returns the system double-precision peak (1.38 PF/s full scale).
func (s *System) PeakDP() units.Flops {
	return s.Node.PeakDP() * units.Flops(s.Nodes())
}

// PeakSP returns the single-precision peak (2.91 PF/s full scale).
func (s *System) PeakSP() units.Flops {
	return s.Node.PeakSP() * units.Flops(s.Nodes())
}

// CUPeakDP returns one CU's DP peak (80.9 TF/s).
func (s *System) CUPeakDP() units.Flops {
	return s.Node.PeakDP() * units.Flops(s.Config.NodesPerCU)
}

// Memory returns total node memory (32 GB per node).
func (s *System) Memory() units.Size {
	return (s.Node.OpteronMemory() + s.Node.CellMemory()) * units.Size(s.Nodes())
}

// AcceleratedFraction returns the share of peak DP delivered by the Cell
// processors ("Approximately 95% of the peak performance of Roadrunner
// results from the PowerXCell 8i processors").
func (s *System) AcceleratedFraction() float64 {
	return float64(s.Node.CellPeakDP()) / float64(s.Node.PeakDP())
}

// Power returns the system draw under LINPACK-class load: compute nodes,
// I/O nodes and the switch plant.
func (s *System) Power() units.Power {
	nodes := s.Node.Power() * units.Power(s.Nodes())
	ioNodes := params.PowerIONode * units.Power(s.Config.CUs*params.IONodesPerCU)
	// One CU switch per CU plus the 8 inter-CU switches.
	switches := params.PowerPerSwitch * units.Power(s.Config.CUs+params.InterCUSwitches)
	return nodes + ioNodes + switches
}

// LinpackSustained returns the modelled LINPACK rate: peak times the
// hybrid DGEMM offload efficiency (the linpack package derives the
// efficiency; machine exposes the headline composition).
func (s *System) LinpackSustained(efficiency float64) units.Flops {
	return units.Flops(float64(s.PeakDP()) * efficiency)
}

// MFlopsPerWatt returns the Green500 metric for a sustained rate.
func (s *System) MFlopsPerWatt(sustained units.Flops) float64 {
	return sustained.MF() / float64(s.Power())
}

// OpteronOnlyPeakDP returns the system peak with accelerators ignored
// (the paper: "Without accelerators, Roadrunner would appear at
// approximately position 50 on the June 2008 Top 500 list" — 44.1 TF/s).
func (s *System) OpteronOnlyPeakDP() units.Flops {
	return s.Node.OpteronPeakDP() * units.Flops(s.Nodes())
}

// Racks returns the physical rack count: 16 compute racks per CU plus 4
// for the inter-CU switches (§II.C).
func (s *System) Racks() int { return s.Config.CUs*16 + 4 }
