// Package energy models off-chip memory-system power, energy and
// energy-delay-product (EDP) for the heterogeneous system: the stacked
// DRAM behind the L4 cache plus the DDR main memory. The model is
// event-based — each row activation, column access and transferred byte
// carries a fixed energy, plus background power proportional to run
// length — which is sufficient for the paper's Figure 14, where DICE's
// savings come entirely from performing fewer DRAM events and finishing
// sooner.
//
// Constants are in arbitrary energy units with DDR per-byte transfer
// costing 4x the on-package stacked interface, the accepted ballpark for
// off-chip vs. on-package signaling (pJ/bit ratios from the HBM/DDR
// literature).
package energy

import "dice/internal/dram"

// Coefficients of the event-energy model, per device class.
type Coefficients struct {
	ActivateEnergy  float64 // per row activation
	AccessEnergy    float64 // per column read/write command
	ByteEnergy      float64 // per byte transferred
	BackgroundPower float64 // per CPU cycle
}

// HBMCoefficients is the on-package stacked DRAM cost model.
func HBMCoefficients() Coefficients {
	return Coefficients{
		ActivateEnergy:  90,
		AccessEnergy:    25,
		ByteEnergy:      0.5,
		BackgroundPower: 0.06,
	}
}

// DDRCoefficients is the off-chip DIMM cost model: signaling across the
// board costs ~4x per byte.
func DDRCoefficients() Coefficients {
	return Coefficients{
		ActivateEnergy:  120,
		AccessEnergy:    35,
		ByteEnergy:      2.0,
		BackgroundPower: 0.03,
	}
}

// DeviceEnergy computes the energy of one device over a run.
func DeviceEnergy(c Coefficients, s dram.Stats, cycles uint64) float64 {
	dynamic := c.ActivateEnergy*float64(s.Activates()) +
		c.AccessEnergy*float64(s.Accesses()) +
		c.ByteEnergy*float64(s.BytesRead+s.BytesWritten)
	return dynamic + c.BackgroundPower*float64(cycles)
}

// Breakdown is a run's aggregate energy report.
type Breakdown struct {
	HBMEnergy float64 // stacked-DRAM (L4) energy, in the model's energy units
	DDREnergy float64 // main-memory energy, in the same units
	Cycles    uint64  // run length in CPU cycles, the delay of Power and EDP
}

// Total returns total energy.
func (b Breakdown) Total() float64 { return b.HBMEnergy + b.DDREnergy }

// Power returns average power (energy per cycle).
func (b Breakdown) Power() float64 {
	if b.Cycles == 0 {
		return 0
	}
	return b.Total() / float64(b.Cycles)
}

// EDP returns the energy-delay product.
func (b Breakdown) EDP() float64 { return b.Total() * float64(b.Cycles) }

// Compute builds a Breakdown from both devices' stats and the run length.
func Compute(hbm, ddr dram.Stats, cycles uint64) Breakdown {
	return Breakdown{
		HBMEnergy: DeviceEnergy(HBMCoefficients(), hbm, cycles),
		DDREnergy: DeviceEnergy(DDRCoefficients(), ddr, cycles),
		Cycles:    cycles,
	}
}
