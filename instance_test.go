package partfeas

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestInstanceValidateNamesOffendingMachine(t *testing.T) {
	ts, _ := demoInstance()
	for _, tc := range []struct {
		name  string
		speed float64
	}{
		{"nan", math.NaN()},
		{"inf", math.Inf(1)},
		{"zero", 0},
		{"negative", -2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlatform(1, tc.speed, 4) // NewPlatform itself cannot reject
			in := Instance{Tasks: ts, Platform: p, Scheduler: EDF}
			err := in.Validate()
			if err == nil {
				t.Fatalf("speed %v accepted", tc.speed)
			}
			if !strings.Contains(err.Error(), "machine 1") {
				t.Errorf("error %q does not name machine 1", err)
			}
		})
	}
}

// The bugfix: bad speeds must surface eagerly from every public entry
// point, not from a distant internal Validate.
func TestEagerValidationAtEntryPoints(t *testing.T) {
	ts, _ := demoInstance()
	bad := NewPlatform(1, math.NaN())
	in := Instance{Tasks: ts, Platform: bad, Scheduler: EDF}
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: NaN speed accepted", name)
		}
		if !strings.Contains(err.Error(), "machine 1") {
			t.Errorf("%s: error %q does not name machine 1", name, err)
		}
	}
	_, err := Test(ts, bad, EDF, 1)
	check("Test", err)
	_, err = NewTester(ts, bad, EDF)
	check("NewTester", err)
	_, err = TestCtx(context.Background(), in, 1)
	check("TestCtx", err)
	_, _, err = MinAlphaCtx(context.Background(), in, 0.5, 4, 1e-6)
	check("MinAlphaCtx", err)
	_, _, err = SimulateCtx(context.Background(), in, SimulateOptions{Assignment: []int{0, 0, 0, 0, 0}, Alpha: 1})
	check("SimulateCtx", err)
}

func TestInstanceValidateScheduler(t *testing.T) {
	ts, p := demoInstance()
	if err := (Instance{Tasks: ts, Platform: p, Scheduler: Scheduler(7)}).Validate(); err == nil {
		t.Error("scheduler 7 accepted")
	}
}

// The context-first entry points must decide identically to the
// pre-redesign API.
func TestCtxEntryPointsMatchLegacy(t *testing.T) {
	ts, p := demoInstance()
	ctx := context.Background()
	for _, sch := range []Scheduler{EDF, RMS} {
		in := Instance{Tasks: ts, Platform: p, Scheduler: sch}
		for _, alpha := range []float64{0.5, 1, 2, 2.98} {
			legacy, err := Test(ts, p, sch, alpha)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TestCtx(ctx, in, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(legacy, got) {
				t.Errorf("%v α=%v: TestCtx %+v != Test %+v", sch, alpha, got, legacy)
			}
		}
		la, lok, err := MinAlpha(ts, p, sch, 0.1, 4, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		ga, gok, err := MinAlphaCtx(ctx, in, 0.1, 4, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if la != ga || lok != gok {
			t.Errorf("%v: MinAlphaCtx (%v, %v) != MinAlpha (%v, %v)", sch, ga, gok, la, lok)
		}
	}
}

func TestCtxEntryPointsObserveCancellation(t *testing.T) {
	ts, p := demoInstance()
	in := Instance{Tasks: ts, Platform: p, Scheduler: EDF}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TestCtx(ctx, in, 1); !IsCanceled(err) {
		t.Errorf("TestCtx on cancelled ctx: %v", err)
	}
	if _, _, err := MinAlphaCtx(ctx, in, 0.1, 4, 1e-9); !IsCanceled(err) {
		t.Errorf("MinAlphaCtx on cancelled ctx: %v", err)
	}
	asg := []int{0, 0, 0, 0, 0}
	if _, _, err := SimulateCtx(ctx, in, SimulateOptions{Assignment: asg, Alpha: 4}); !IsCanceled(err) {
		t.Errorf("SimulateCtx on cancelled ctx: %v", err)
	}
}

// TestMinAlphaTinyTolTerminates: a tol below the float spacing of the
// bracket must end the bisection at the accept boundary instead of
// spinning until the context expires (or forever, without one).
func TestMinAlphaTinyTolTerminates(t *testing.T) {
	ts, p := demoInstance()
	in := Instance{Tasks: ts, Platform: p, Scheduler: EDF}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tiny, ok, err := MinAlphaCtx(ctx, in, 0.01, 8, 1e-300)
	if err != nil || !ok {
		t.Fatalf("MinAlphaCtx tol=1e-300: %v %v %v", tiny, ok, err)
	}
	coarse, ok, err := MinAlphaCtx(ctx, in, 0.01, 8, 1e-12)
	if err != nil || !ok {
		t.Fatalf("MinAlphaCtx tol=1e-12: %v %v %v", coarse, ok, err)
	}
	if !(tiny <= coarse && coarse-tiny <= 1e-12) {
		t.Errorf("tol=1e-300 gives %v, not within 1e-12 below tol=1e-12's %v", tiny, coarse)
	}

	done := make(chan float64, 1)
	go func() {
		a, _, _ := MinAlpha(ts, p, EDF, 0.01, 8, 1e-300)
		done <- a
	}()
	select {
	case a := <-done:
		if a != tiny {
			t.Errorf("MinAlpha = %v, MinAlphaCtx = %v", a, tiny)
		}
	case <-time.After(time.Second):
		t.Fatal("MinAlpha with tol=1e-300 did not return within 1s")
	}
}

func TestInstancePolicyMapping(t *testing.T) {
	if (Instance{Scheduler: EDF}).Policy() != PolicyEDF {
		t.Error("EDF should replay under PolicyEDF")
	}
	if (Instance{Scheduler: RMS}).Policy() != PolicyRM {
		t.Error("RMS should replay under PolicyRM")
	}
}
