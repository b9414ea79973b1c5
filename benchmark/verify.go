package main

// equalVec reports whether got is exactly want, element for element (Prime
// field results are canonical, so equality is bitwise). It allocates
// nothing, so the callers verify every answer inside the measured loop
// without touching allocs_per_query.
func equalVec(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range want {
		if got[i] != v {
			return false
		}
	}
	return true
}

// tally counts one caller's outcomes. A wrong answer and an error are both
// failures; neither panics.
type tally struct {
	attempted int
	failed    int
}

// record verifies one reply against the expected product.
func (t *tally) record(got []uint64, err error, want []uint64) bool {
	t.attempted++
	if err != nil || !equalVec(got, want) {
		t.failed++
		return false
	}
	return true
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}
