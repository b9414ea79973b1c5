// Package cost implements the resource cost model of the MCSCEC paper
// (§II-A, Eq. (1)).
//
// Each edge device s_j advertises four unit prices: storage per element
// (c^s), one addition (c^a), one multiplication (c^m), and sending one value
// back to the user (c^d). Handling a single coded row of length l then costs
//
//	c_j = (l+1)·c^s + l·c^m + (l−1)·c^a + c^d
//
// and the total system cost of an allocation {V(B_j)} is Eq. (1):
//
//	Σ_j [ c_j·V(B_j) + l·c^s_j ]
//
// The l·c^s_j term (storing the input vector x) does not depend on the
// allocation, so the optimization in package alloc minimizes Σ_j V(B_j)·c_j.
package cost

import (
	"errors"
	"fmt"
)

// Components holds the four unit prices of one edge device.
type Components struct {
	// Storage is c^s, the cost of storing one element.
	Storage float64
	// Add is c^a, the cost of one field addition.
	Add float64
	// Mul is c^m, the cost of one field multiplication. The paper assumes
	// c^a ≤ c^m.
	Mul float64
	// Comm is c^d, the cost of transmitting one value to the user device.
	Comm float64
}

// Validate checks that the components describe a device the model admits:
// non-negative prices with c^a ≤ c^m.
func (c Components) Validate() error {
	if c.Storage < 0 || c.Add < 0 || c.Mul < 0 || c.Comm < 0 {
		return fmt.Errorf("cost: negative component in %+v", c)
	}
	if c.Add > c.Mul {
		return fmt.Errorf("cost: addition price %g exceeds multiplication price %g", c.Add, c.Mul)
	}
	return nil
}

// Unit returns the per-row unit cost c_j for rows of length l.
func (c Components) Unit(l int) float64 {
	if l < 1 {
		panic(fmt.Sprintf("cost: row length %d < 1", l))
	}
	return float64(l+1)*c.Storage + float64(l)*c.Mul + float64(l-1)*c.Add + c.Comm
}

// FixedPerDevice returns the allocation-independent part of Eq. (1) for one
// device: l·c^s, the cost of storing the input vector x.
func (c Components) FixedPerDevice(l int) float64 {
	return float64(l) * c.Storage
}

// ErrNoDevices is returned when a cost computation receives no devices.
var ErrNoDevices = errors.New("cost: no devices")

// Units maps a fleet of component price lists to unit costs c_j for rows of
// length l. It returns an error if any device fails Validate.
func Units(l int, comps []Components) ([]float64, error) {
	if len(comps) == 0 {
		return nil, ErrNoDevices
	}
	units := make([]float64, len(comps))
	for j, c := range comps {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("device %d: %w", j, err)
		}
		units[j] = c.Unit(l)
	}
	return units, nil
}

// Total evaluates the full Eq. (1) cost: per-row unit costs times the number
// of coded rows on each device, plus the fixed l·c^s term for every device.
// rows[j] is V(B_j); devices with rows[j] == 0 still pay the fixed term,
// matching the paper's summation over all k devices.
func Total(l int, comps []Components, rows []int) (float64, error) {
	if len(comps) != len(rows) {
		return 0, fmt.Errorf("cost: %d devices but %d row counts", len(comps), len(rows))
	}
	units, err := Units(l, comps)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for j, c := range comps {
		if rows[j] < 0 {
			return 0, fmt.Errorf("cost: negative row count %d on device %d", rows[j], j)
		}
		total += units[j]*float64(rows[j]) + c.FixedPerDevice(l)
	}
	return total, nil
}

// VariableTotal evaluates only the allocation-dependent part Σ_j V(B_j)·c_j
// given precomputed unit costs. This is the objective the task-allocation
// algorithms minimize.
func VariableTotal(units []float64, rows []int) (float64, error) {
	if len(units) != len(rows) {
		return 0, fmt.Errorf("cost: %d unit costs but %d row counts", len(units), len(rows))
	}
	total := 0.0
	for j, u := range units {
		if rows[j] < 0 {
			return 0, fmt.Errorf("cost: negative row count %d on device %d", rows[j], j)
		}
		total += u * float64(rows[j])
	}
	return total, nil
}
