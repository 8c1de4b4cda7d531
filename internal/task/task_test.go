package task

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name    string
		task    Task
		wantErr bool
	}{
		{"ok", Task{Name: "a", WCET: 1, Period: 10}, false},
		{"zero wcet", Task{WCET: 0, Period: 10}, true},
		{"negative wcet", Task{WCET: -1, Period: 10}, true},
		{"zero period", Task{WCET: 1, Period: 0}, true},
		{"negative period", Task{WCET: 1, Period: -5}, true},
		{"over-utilized ok (u>1 allowed at model level)", Task{WCET: 20, Period: 10}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.task.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestUtilization(t *testing.T) {
	tk := Task{WCET: 3, Period: 4}
	if got := tk.Utilization(); got != 0.75 {
		t.Errorf("Utilization = %v, want 0.75", got)
	}
	r := tk.UtilizationRat()
	if r.Num() != 3 || r.Den() != 4 {
		t.Errorf("UtilizationRat = %v, want 3/4", r)
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set must fail validation")
	}
	s := Set{{WCET: 1, Period: 2}, {WCET: 0, Period: 2}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "task 1") {
		t.Errorf("Validate err = %v, want index-1 failure", err)
	}
}

func TestTotalUtilization(t *testing.T) {
	s := Set{{WCET: 1, Period: 2}, {WCET: 1, Period: 4}, {WCET: 1, Period: 4}}
	if got := s.TotalUtilization(); math.Abs(got-1.0) > 1e-15 {
		t.Errorf("TotalUtilization = %v, want 1", got)
	}
	r, err := s.TotalUtilizationRat()
	if err != nil || r.Num() != 1 || r.Den() != 1 {
		t.Errorf("TotalUtilizationRat = %v (%v), want 1", r, err)
	}
}

func TestMaxUtilizationAndUtilizations(t *testing.T) {
	s := Set{{WCET: 1, Period: 10}, {WCET: 9, Period: 10}, {WCET: 1, Period: 2}}
	if got := s.MaxUtilization(); got != 0.9 {
		t.Errorf("MaxUtilization = %v, want 0.9", got)
	}
	us := s.Utilizations()
	if len(us) != 3 || us[0] != 0.1 || us[1] != 0.9 || us[2] != 0.5 {
		t.Errorf("Utilizations = %v", us)
	}
	if (Set{}).MaxUtilization() != 0 {
		t.Error("MaxUtilization of empty set should be 0")
	}
}

func TestHyperperiod(t *testing.T) {
	s := Set{{WCET: 1, Period: 4}, {WCET: 1, Period: 6}, {WCET: 1, Period: 10}}
	hp, err := s.Hyperperiod()
	if err != nil || hp != 60 {
		t.Errorf("Hyperperiod = %d (%v), want 60", hp, err)
	}
	if _, err := (Set{}).Hyperperiod(); err == nil {
		t.Error("Hyperperiod of empty set should fail")
	}
	// Overflow: periods are large coprimes.
	big := Set{
		{WCET: 1, Period: math.MaxInt64 / 2},
		{WCET: 1, Period: math.MaxInt64/2 - 1},
	}
	if _, err := big.Hyperperiod(); err == nil {
		t.Error("Hyperperiod overflow not detected")
	}
}

func TestHyperperiodOverflowBoundary(t *testing.T) {
	// A product that lands exactly at 2^62 must succeed — the overflow
	// guard must not reject representable hyperperiods.
	exact := Set{{WCET: 1, Period: 1 << 31}, {WCET: 1, Period: 1 << 31}, {WCET: 1, Period: 2}}
	hp, err := exact.Hyperperiod()
	if err != nil || hp != 1<<31 {
		t.Errorf("equal periods: hp = %d (%v), want %d", hp, err, int64(1<<31))
	}
	atLimit := Set{{WCET: 1, Period: 1 << 31}, {WCET: 1, Period: (1 << 31) + 1}}
	hp, err = atLimit.Hyperperiod()
	want := int64(1<<31) * ((1 << 31) + 1) // coprime, product < 2^63
	if err != nil || hp != want {
		t.Errorf("at-limit coprimes: hp = %d (%v), want %d", hp, err, want)
	}
	// One more coprime factor pushes past int64; the error must name the
	// period that overflowed rather than wrap around silently.
	over := append(Set{}, atLimit...)
	over = append(over, Task{WCET: 1, Period: 99991})
	_, err = over.Hyperperiod()
	if err == nil {
		t.Fatal("overflow not detected")
	}
	if !strings.Contains(err.Error(), "99991") {
		t.Errorf("overflow error %q does not name the offending period", err)
	}
	// Overflow must be detected regardless of task order.
	front := Set{over[2], over[0], over[1]}
	if _, err := front.Hyperperiod(); err == nil {
		t.Error("overflow not detected with large periods last")
	}
}

func TestFromUtilizations(t *testing.T) {
	s, err := FromUtilizations([]float64{0.5, 0.25}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s[0].WCET != 50 || s[1].WCET != 25 {
		t.Errorf("WCETs = %d, %d", s[0].WCET, s[1].WCET)
	}
	if _, err := FromUtilizations([]float64{0.5}, 0); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := FromUtilizations([]float64{-1}, 10); err == nil {
		t.Error("negative utilization should fail")
	}
	if _, err := FromUtilizations([]float64{math.NaN()}, 10); err == nil {
		t.Error("NaN utilization should fail")
	}
	// Tiny utilization clamps to WCET 1.
	s, err = FromUtilizations([]float64{1e-9}, 10)
	if err != nil || s[0].WCET != 1 {
		t.Errorf("clamp failed: %v (%v)", s, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Set{{Name: "x", WCET: 1, Period: 2}}
	c := s.Clone()
	c[0].Name = "y"
	if s[0].Name != "x" {
		t.Error("Clone shares backing storage")
	}
}

func TestStrings(t *testing.T) {
	tk := Task{Name: "t", WCET: 2, Period: 5}
	if got := tk.String(); got != "t(C=2,P=5)" {
		t.Errorf("Task.String = %q", got)
	}
	anon := Task{WCET: 1, Period: 2}
	if !strings.Contains(anon.String(), "unnamed") {
		t.Errorf("anonymous String = %q", anon.String())
	}
	s := Set{tk}
	if got := s.String(); got != "{t(C=2,P=5)}" {
		t.Errorf("Set.String = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Set{
		{Name: "audio", WCET: 2, Period: 10},
		{Name: "video", WCET: 7, Period: 33},
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("task %d = %+v, want %+v", i, got[i], s[i])
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"tasks":[{"wcet":0,"period":5}]}`,
		`{"tasks":[]}`,
		`{"bogus":1}`,
		`not json`,
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q) accepted invalid input", in)
		}
	}
}

// Property: TotalUtilization (float) tracks TotalUtilizationRat (exact)
// to within a few ulps.
func TestQuickUtilizationAgreement(t *testing.T) {
	f := func(raw []struct {
		C uint8
		P uint8
	}) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		s := make(Set, len(raw))
		for i, r := range raw {
			s[i] = Task{WCET: int64(r.C) + 1, Period: int64(r.P) + 1}
		}
		exact, err := s.TotalUtilizationRat()
		if err != nil {
			return true
		}
		return math.Abs(s.TotalUtilization()-exact.Float64()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
