package adapt

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/scec/scec/internal/alloc"
)

// Host is one candidate device in the planner's fixed pool: an address plus
// its provisioning-time base unit cost.
type Host struct {
	Addr string  `json:"addr"`
	Base float64 `json:"base"`
}

// BlockHost is one logical block's live placement: the device serving it and
// the coded rows it holds.
type BlockHost struct {
	Block int    `json:"block"`
	Addr  string `json:"addr"`
	Rows  int    `json:"rows"`
}

// Move is one block migration an adopted plan requires.
type Move struct {
	Block int    `json:"block"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// Decision is the outcome of one control cycle: the candidate TA2 plan on
// the learned costs, how it compares to the live placement at the same
// prices, and the hysteresis verdict.
type Decision struct {
	// At is the caller-clock time of the cycle.
	At time.Duration `json:"atNs"`
	// R and I are the candidate plan's coding parameter and device count.
	R int `json:"r"`
	I int `json:"i"`
	// CandidateCost is the TA2 optimum at the learned costs; CurrentCost is
	// the live placement priced at the same learned costs.
	CandidateCost float64 `json:"candidateCost"`
	CurrentCost   float64 `json:"currentCost"`
	// Adopt is the verdict; Reason explains it either way.
	Adopt  bool   `json:"adopt"`
	Reason string `json:"reason"`
	// Reshape is set when adoption requires a fresh encoding (a drain-and-
	// swap of the whole deployment rather than per-block rehosts): r changes,
	// or the target puts a block on a device that was sent a different one.
	Reshape bool `json:"reshape,omitempty"`
	// Target is the adopted per-block host assignment in scheme order
	// (length = candidate I); nil when not adopted.
	Target []string `json:"target,omitempty"`
	// Moves lists the block rehosts that realize Target from the current
	// placement (empty for a reshape, which moves everything by definition).
	// Every move is admissible: its destination is unbound, or bound to the
	// very block it receives.
	Moves []Move `json:"moves,omitempty"`
	// Learned is the per-host learned unit cost, in pool order.
	Learned []float64 `json:"-"`
}

// Planner re-runs TA2 over a fixed host pool with learned costs and applies
// hysteresis against the live placement. It is deterministic and clock-free;
// the controller (or the virtual-clock scenario) supplies timestamps.
type Planner struct {
	m          int
	hosts      []Host
	index      map[string]int
	minImprove float64
	cooldown   time.Duration

	lastAdopt time.Duration
	adopted   bool
}

// NewPlanner builds a planner for an m-row deployment over the given host
// pool. The pool is every device the control plane may ever use — current
// hosts plus standbys — and stays fixed for the planner's lifetime so learned
// costs and plans always refer to the same devices.
func NewPlanner(m int, hosts []Host, minImprove float64, cooldown time.Duration) (*Planner, error) {
	if m < 1 {
		return nil, fmt.Errorf("adapt: planner needs m >= 1, got %d", m)
	}
	if len(hosts) < 2 {
		return nil, fmt.Errorf("adapt: planner needs at least 2 hosts, got %d", len(hosts))
	}
	if minImprove <= 0 {
		minImprove = DefaultMinImprovement
	}
	index := make(map[string]int, len(hosts))
	for j, h := range hosts {
		if h.Addr == "" {
			return nil, fmt.Errorf("adapt: host %d has an empty address", j)
		}
		if _, dup := index[h.Addr]; dup {
			return nil, fmt.Errorf("adapt: host %s appears twice in the pool", h.Addr)
		}
		if h.Base <= 0 || math.IsInf(h.Base, 0) || math.IsNaN(h.Base) {
			return nil, fmt.Errorf("adapt: host %s has invalid base cost %g", h.Addr, h.Base)
		}
		index[h.Addr] = j
	}
	return &Planner{m: m, hosts: hosts, index: index, minImprove: minImprove, cooldown: cooldown}, nil
}

// Hosts returns the fixed candidate pool.
func (p *Planner) Hosts() []Host { return p.hosts }

// Learned computes the per-host learned unit costs: base × factor, with
// missing factors neutral and everything clamped to finite positive values
// (the allocation problem rejects zero, negative, or infinite costs).
func (p *Planner) Learned(factors map[string]float64) []float64 {
	costs := make([]float64, len(p.hosts))
	for j, h := range p.hosts {
		f := 1.0
		if v, ok := factors[h.Addr]; ok && v > 0 {
			f = v
		}
		c := h.Base * f
		if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
			c = h.Base
		}
		costs[j] = c
	}
	return costs
}

// Decide runs one control cycle: TA2 on the learned costs, then hysteresis
// against the live placement priced at the same costs. urgent (an unhealthy
// incumbent device) bypasses the cooldown, never the improvement margin.
// bound is the substrate's placement history under the current encoding:
// every address ever sent a block (current hosts included) → that block. Move
// admissibility is decided here and nowhere else (fleet's device.bind
// enforces it).
func (p *Planner) Decide(now time.Duration, factors map[string]float64, current []BlockHost, bound map[string]int, urgent bool) (Decision, error) {
	d := Decision{At: now}
	d.Learned = p.Learned(factors)
	in := alloc.Instance{M: p.m, Costs: d.Learned}
	cand, err := alloc.TA2(in)
	if err != nil {
		return d, fmt.Errorf("adapt: replan: %w", err)
	}

	currentCost := 0.0
	currentR := 0
	for _, b := range current {
		j, ok := p.index[b.Addr]
		if !ok {
			return d, fmt.Errorf("adapt: block %d lives on %s, which is outside the planner's pool", b.Block, b.Addr)
		}
		currentCost += float64(b.Rows) * d.Learned[j]
		if b.Rows > currentR {
			currentR = b.Rows
		}
	}
	d.CurrentCost = currentCost

	// Prefer the best same-r plan when it is within the hysteresis margin of
	// the unconstrained optimum: a same-r adoption moves only the displaced
	// blocks (cheap rehosts), while a changed r reshapes the whole
	// deployment. The margin keeps this migration-cost awareness from ever
	// costing more than one adoption threshold's worth of objective.
	if currentR > 0 && cand.R != currentR {
		if sameR, err := alloc.PlanForR(in, currentR); err == nil && sameR.Cost <= cand.Cost*(1+p.minImprove) {
			cand = sameR
		}
	}
	d.R, d.I = cand.R, cand.I
	d.CandidateCost = cand.Cost

	if len(current) == 0 {
		d.Adopt = true
		d.Reason = "initial plan"
		d.Target, _ = p.match(cand, nil)
		p.lastAdopt, p.adopted = now, true
		return d, nil
	}

	// The largest block holds exactly r rows in the Lemma 2 shape, so the
	// live r is readable off the placement.
	d.Reshape = cand.R != currentR || cand.I != len(current)

	if d.CandidateCost > (1-p.minImprove)*currentCost {
		d.Reason = fmt.Sprintf("held: improvement %.1f%% below %.1f%% threshold",
			100*(1-d.CandidateCost/math.Max(currentCost, math.SmallestNonzeroFloat64)), 100*p.minImprove)
		return d, nil
	}
	if !urgent && p.adopted && now-p.lastAdopt < p.cooldown {
		d.Reason = fmt.Sprintf("held: cooldown (%v since last adoption)", now-p.lastAdopt)
		return d, nil
	}

	why := ""
	if !d.Reshape {
		var ok bool
		if d.Target, ok = p.match(cand, bound); !ok {
			// A swap between occupied hosts, a displacement cycle, a target
			// on another block's vacated host: the plan is only reachable
			// under fresh masking rows, i.e. by re-encoding at the same r.
			d.Reshape = true
			why = ", re-encoding: a target host was already sent another block"
		}
	}
	if d.Reshape {
		// A new encoding is a new epoch: nothing is bound under it.
		d.Target, _ = p.match(cand, nil)
	} else {
		for _, b := range current {
			if d.Target[b.Block] != b.Addr {
				d.Moves = append(d.Moves, Move{Block: b.Block, From: b.Addr, To: d.Target[b.Block]})
			}
		}
		if len(d.Moves) == 0 {
			d.Target = nil
			d.Reason = "held: placement already optimal"
			return d, nil
		}
	}
	d.Adopt = true
	if urgent {
		why += " (urgent: unhealthy host)"
	}
	d.Reason = fmt.Sprintf("adopted: %.1f%% improvement%s", 100*(1-d.CandidateCost/currentCost), why)
	p.lastAdopt, p.adopted = now, true
	return d, nil
}

// match maps the candidate plan's blocks onto pool addresses, in scheme block
// order, under the one-block-per-device-per-encoding rule: a wanted host that
// is bound can only take the block it was sent, and must be wanted at that
// block's row count; the remaining blocks go to the remaining — unbound —
// wanted hosts of their row class in plan (cheapest-first) order. Blocks of
// one row count are interchangeable across the plan's hosts (any bijection
// realizes the same cost), so this also moves as few blocks as possible:
// every live host the plan still wants keeps its block. ok is false when no
// such matching exists.
func (p *Planner) match(cand alloc.Plan, bound map[string]int) (target []string, ok bool) {
	target = make([]string, len(cand.Assignments))
	var free []alloc.Assignment // wanted hosts nothing is bound to
	for _, a := range cand.Assignments {
		addr := p.hosts[a.Device].Addr
		b, isBound := bound[addr]
		switch {
		case !isBound:
			free = append(free, a)
		case b < len(target) && target[b] == "" && cand.Assignments[b].Rows == a.Rows:
			target[b] = addr
		default:
			return nil, false
		}
	}
	for b, a := range cand.Assignments {
		if target[b] != "" {
			continue
		}
		// Hosts and blocks are the same list of row counts, and every bound
		// pair above removed one of each at equal rows, so a host remains.
		i := slices.IndexFunc(free, func(h alloc.Assignment) bool { return h.Rows == a.Rows })
		target[b] = p.hosts[free[i].Device].Addr
		free = slices.Delete(free, i, i+1)
	}
	return target, true
}
