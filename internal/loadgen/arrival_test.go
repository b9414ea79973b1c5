package loadgen

import (
	"math/rand/v2"
	"testing"
	"time"
)

// meanGap averages n gaps from a fresh schedule.
func meanGap(t *testing.T, a Arrival, rate float64, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 42))
	var total time.Duration
	for i := 0; i < n; i++ {
		g := a.Gap(rng, rate)
		if g < 0 {
			t.Fatalf("%s: negative gap %v", a.Name(), g)
		}
		total += g
	}
	return total.Seconds() / float64(n)
}

func TestArrivalMeanRate(t *testing.T) {
	const rate = 200.0
	want := 1 / rate
	for _, a := range []Arrival{Uniform{}, Poisson{}, &Bursty{}, &Bursty{Factor: 8, Length: 32}} {
		got := meanGap(t, a, rate, 20000)
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("%s: mean gap %.6fs, want ~%.6fs (mean-rate must be preserved)", a.Name(), got, want)
		}
	}
}

func TestUniformExact(t *testing.T) {
	g := Uniform{}.Gap(nil, 100)
	if g != 10*time.Millisecond {
		t.Fatalf("uniform gap at 100 QPS = %v, want 10ms", g)
	}
}

func TestArrivalDeterministic(t *testing.T) {
	for _, mk := range []func() Arrival{
		func() Arrival { return Poisson{} },
		func() Arrival { return &Bursty{} },
	} {
		a, b := mk(), mk()
		rngA := rand.New(rand.NewPCG(5, 5))
		rngB := rand.New(rand.NewPCG(5, 5))
		for i := 0; i < 100; i++ {
			if ga, gb := a.Gap(rngA, 50), b.Gap(rngB, 50); ga != gb {
				t.Fatalf("%s: gap %d differs under identical seeds: %v vs %v", a.Name(), i, ga, gb)
			}
		}
	}
}

func TestBurstyShape(t *testing.T) {
	// Within a burst, gaps come at factor× the rate; the burst-opening gap
	// includes the idle makeup and must dominate.
	b := &Bursty{Factor: 4, Length: 16}
	rng := rand.New(rand.NewPCG(1, 1))
	first := b.Gap(rng, 100) // opens the burst: idle + first intra-burst gap
	var intra time.Duration
	for i := 0; i < 15; i++ {
		intra += b.Gap(rng, 100)
	}
	if first < intra/4 {
		t.Errorf("burst-opening gap %v should carry the idle makeup (intra total %v)", first, intra)
	}
}

func TestParseArrival(t *testing.T) {
	cases := []struct {
		spec string
		name string
		ok   bool
	}{
		{"", "poisson", true},
		{"poisson", "poisson", true},
		{"uniform", "uniform", true},
		{"bursty", "bursty", true},
		{"bursty:8x32", "bursty", true},
		{"bursty:1x32", "", false},
		{"bursty:8x0", "", false},
		{"bursty:NaNx8", "", false},
		{"bursty:Infx8", "", false},
		{"bursty:nonsense", "", false},
		{"weibull", "", false},
	}
	for _, c := range cases {
		a, err := ParseArrival(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParseArrival(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && a.Name() != c.name {
			t.Errorf("ParseArrival(%q).Name() = %q, want %q", c.spec, a.Name(), c.name)
		}
	}
	a, err := ParseArrival("bursty:8x32")
	if err != nil {
		t.Fatal(err)
	}
	if b := a.(*Bursty); b.Factor != 8 || b.Length != 32 {
		t.Fatalf("bursty:8x32 parsed as %+v", b)
	}
}
