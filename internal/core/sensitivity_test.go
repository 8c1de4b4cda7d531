package core

import (
	"math"
	"math/rand"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/task"
)

func TestMaxWCETSimple(t *testing.T) {
	// One task C=2, P=10 on speed 1, EDF, α=1: headroom up to C=10.
	ts := task.Set{{Name: "a", WCET: 2, Period: 10}}
	p := machine.New(1)
	c, ok, err := MaxWCET(ts, p, EDF, 1, 0)
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if c != 10 {
		t.Errorf("MaxWCET = %d, want 10", c)
	}
	// With a second task eating half the machine: headroom to C=5.
	ts2 := task.Set{
		{Name: "a", WCET: 2, Period: 10},
		{Name: "b", WCET: 5, Period: 10},
	}
	c, ok, err = MaxWCET(ts2, p, EDF, 1, 0)
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if c != 5 {
		t.Errorf("MaxWCET = %d, want 5", c)
	}
	// α·s_max·P = 1.6e19 leaves the int64 range: the bracket clamps to
	// MaxInt64 instead of wrapping, and C=MaxInt64 still fits.
	c, ok, err = MaxWCET(task.Set{{WCET: 1, Period: 1e18}}, machine.New(16), EDF, 1, 0)
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if c != math.MaxInt64 {
		t.Errorf("MaxWCET = %d, want MaxInt64", c)
	}
}

func TestMaxWCETAlphaScales(t *testing.T) {
	ts := task.Set{{WCET: 2, Period: 10}}
	p := machine.New(1)
	c, ok, err := MaxWCET(ts, p, EDF, 2, 0)
	if err != nil || !ok {
		t.Fatalf("%v %v", ok, err)
	}
	if c != 20 {
		t.Errorf("MaxWCET at α=2 = %d, want 20", c)
	}
}

func TestMaxWCETRejectedSet(t *testing.T) {
	ts := task.Set{{WCET: 9, Period: 10}, {WCET: 9, Period: 10}}
	p := machine.New(1)
	_, ok, err := MaxWCET(ts, p, EDF, 1, 0)
	if err != nil || ok {
		t.Errorf("rejected set: ok=%v err=%v", ok, err)
	}
}

func TestMaxWCETValidation(t *testing.T) {
	ts := task.Set{{WCET: 1, Period: 2}}
	p := machine.New(1)
	if _, _, err := MaxWCET(ts, p, EDF, 1, 5); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, _, err := MaxWCET(ts, p, EDF, -1, 0); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, _, err := MaxWCET(task.Set{}, p, EDF, 1, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, _, err := MaxWCET(ts, machine.Platform{}, EDF, 1, 0); err == nil {
		t.Error("empty platform accepted")
	}
}

// Property: the returned WCET is accepted and WCET+1 is rejected.
func TestMaxWCETIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(3)
		ts := make(task.Set, n)
		for i := range ts {
			p := int64(10 + rng.Intn(100))
			c := int64(1 + rng.Intn(int(p)/4))
			ts[i] = task.Task{WCET: c, Period: p}
		}
		speeds := make([]float64, m)
		for j := range speeds {
			speeds[j] = 0.5 + rng.Float64()*2
		}
		p := machine.New(speeds...)
		sch := Scheduler(rng.Intn(2))
		i := rng.Intn(n)
		cMax, ok, err := MaxWCET(ts, p, sch, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		mod := ts.Clone()
		mod[i].WCET = cMax
		rep, err := Test(mod, p, sch, 1)
		if err != nil || !rep.Accepted {
			t.Fatalf("trial %d: MaxWCET %d not accepted (%v)", trial, cMax, err)
		}
		mod[i].WCET = cMax + 1
		rep, err = Test(mod, p, sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Accepted {
			t.Fatalf("trial %d: MaxWCET %d not maximal", trial, cMax)
		}
	}
}

func TestWCETHeadroom(t *testing.T) {
	ts := task.Set{
		{Name: "a", WCET: 2, Period: 10},
		{Name: "b", WCET: 5, Period: 10},
	}
	p := machine.New(1)
	h, err := WCETHeadroom(ts, p, EDF, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-2.5) > 1e-9 { // 5/2
		t.Errorf("headroom[0] = %v, want 2.5", h[0])
	}
	if math.Abs(h[1]-1.6) > 1e-9 { // 8/5
		t.Errorf("headroom[1] = %v, want 1.6", h[1])
	}
	// Rejected set: NaN entries.
	bad := task.Set{{WCET: 9, Period: 10}, {WCET: 9, Period: 10}}
	h, err = WCETHeadroom(bad, p, EDF, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h {
		if !math.IsNaN(v) {
			t.Errorf("headroom[%d] = %v, want NaN", i, v)
		}
	}
}
