package adapt

import (
	"testing"

	"github.com/scec/scec/internal/attack"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
)

// views is one encoding epoch's placement history: address → every block it
// was sent (or observed serving) under that epoch's masking rows. A passive
// device keeps all of it, so this — not the current placement — is its view.
type views map[string]map[int]bool

func (v views) add(addr string, block int) {
	if v[addr] == nil {
		v[addr] = map[int]bool{}
	}
	v[addr][block] = true
}

// observe folds a fleet session's replica sets and bindings (which also cover
// vacated hosts and failed pushes) into the epoch's views.
func (v views) observe(s *fleet.Session[uint64]) {
	for j, group := range s.BlockHosts() {
		for _, addr := range group {
			v.add(addr, j)
		}
	}
	for addr, j := range s.Bindings() {
		v.add(addr, j)
	}
}

// audit asserts the lifetime invariant for one epoch: no address holds more
// than one block of the encoding, and the stacked coefficients of everything
// it holds leak nothing (attack.Leakage = 0, Def. 2 over the whole view).
func (v views) audit(t *testing.T, code coding.Code[uint64]) {
	t.Helper()
	f := field.Prime{}
	for addr, blocks := range v {
		if len(blocks) > 1 {
			t.Errorf("%s was sent %d blocks of one encoding: %v", addr, len(blocks), blocks)
		}
		var stack []*matrix.Dense[uint64]
		for j := range blocks {
			stack = append(stack, code.DeviceCoefficients(j))
		}
		if leak := attack.Leakage[uint64](f, matrix.VStack(stack...), code.M()); leak != 0 {
			t.Errorf("%s: lifetime view %v leaks %d combinations of A's rows", addr, blocks, leak)
		}
	}
}
