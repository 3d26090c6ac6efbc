package budget

// DPKnapsack is the dynamic-programming allocator modelled on fine-grained
// runtime power budgeting [9]. It solves a multiple-choice knapsack: each
// core picks exactly one DVFS level (capped at its request), the total
// power must fit the budget, and the summed level value (expected
// throughput) is maximised. The budget axis is quantised to QuantMW
// milliwatts to bound the table.
type DPKnapsack struct {
	// QuantMW is the budget quantisation step in milliwatts.
	QuantMW uint32
}

var _ Allocator = DPKnapsack{}

// NewDPKnapsack returns a DP allocator with the given quantisation step
// (clamped to at least 1 mW).
func NewDPKnapsack(quantMW uint32) DPKnapsack {
	if quantMW < 1 {
		quantMW = 1
	}
	return DPKnapsack{QuantMW: quantMW}
}

// Name implements Allocator.
func (DPKnapsack) Name() string { return "dp" }

// Allocate implements Allocator.
func (d DPKnapsack) Allocate(budgetMW uint64, reqs []Request) []uint32 {
	grants := make([]uint32, len(reqs))
	if len(reqs) == 0 {
		return grants
	}
	quant := uint64(d.QuantMW)
	cols := int(budgetMW/quant) + 1

	// choices[i] are the candidate (power, value) pairs for core i: every
	// level at or below the core's request, or the bare request when no
	// level fits (a starved core runs on whatever it was granted).
	type choice struct {
		mw    uint32
		units int
		value float64
	}
	// All cores' choices share one backing array, sized up front.
	total := 0
	for _, r := range reqs {
		total += 1 + len(r.LevelsMW)
	}
	flat := make([]choice, 0, total)
	choices := make([][]choice, len(reqs))
	for i, r := range reqs {
		start := len(flat)
		// The zero-grant choice keeps the program feasible for any budget
		// and lets the optimiser park a core — which is exactly what
		// happens to a victim whose request was tampered to zero.
		flat = append(flat, choice{mw: 0, units: 0, value: 0})
		for li, lvl := range r.LevelsMW {
			if lvl > r.RequestMW {
				break
			}
			v := 0.0
			if li < len(r.LevelValues) {
				v = r.LevelValues[li]
			}
			// Ceiling quantisation guarantees the un-quantised grant sum
			// never exceeds the budget.
			flat = append(flat, choice{mw: lvl, units: int((uint64(lvl) + quant - 1) / quant), value: v})
		}
		choices[i] = flat[start:len(flat):len(flat)]
	}

	const negInf = -1e18
	// best[j] = max value using cores processed so far with j budget units;
	// next is the row being built, and the two swap after every core.
	// pick[i*cols+j] = chosen level index for core i at state j.
	best := make([]float64, cols)
	next := make([]float64, cols)
	for j := range best {
		best[j] = negInf
	}
	best[0] = 0
	pick := make([]int16, len(reqs)*cols)
	for i := range reqs {
		row := pick[i*cols : (i+1)*cols]
		for j := range next {
			next[j] = negInf
			row[j] = -1
		}
		for j := 0; j < cols; j++ {
			if best[j] == negInf {
				continue
			}
			for ci, c := range choices[i] {
				nj := j + c.units
				if nj >= cols {
					continue
				}
				if v := best[j] + c.value; v > next[nj] {
					next[nj] = v
					row[nj] = int16(ci)
				}
			}
		}
		best, next = next, best
	}

	// Find the best reachable end state and trace back.
	bestJ, bestV := -1, negInf
	for j := 0; j < cols; j++ {
		if best[j] > bestV {
			bestV, bestJ = best[j], j
		}
	}
	if bestJ < 0 {
		return grants // no feasible assignment: everyone gets zero
	}
	j := bestJ
	for i := len(reqs) - 1; i >= 0; i-- {
		ci := pick[i*cols+j]
		if ci < 0 {
			// Unreachable in a consistent table; grant the floor.
			continue
		}
		c := choices[i][ci]
		grants[i] = c.mw
		j -= c.units
	}
	return grants
}
