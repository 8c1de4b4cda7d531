package partfeas_test

import (
	"context"
	"fmt"
	"log"

	"partfeas"
)

// The basic call: run the paper's first-fit test and read the verdict.
func ExampleTest() {
	tasks := partfeas.TaskSet{
		{Name: "audio", WCET: 1, Period: 4},
		{Name: "video", WCET: 9, Period: 30},
		{Name: "net", WCET: 3, Period: 10},
	}
	platform := partfeas.NewPlatform(1, 2)

	report, err := partfeas.Test(tasks, platform, partfeas.EDF, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accepted:", report.Accepted)
	// Output:
	// accepted: true
}

// Running at a theorem's proved augmentation factor turns rejection into
// a certificate about the adversary.
func ExampleTestTheorem() {
	// Three tasks of utilization 0.9 cannot fit two unit machines even
	// with migration, so every theorem-grade test rejects.
	tasks := partfeas.TaskSet{
		{Name: "a", WCET: 9, Period: 10},
		{Name: "b", WCET: 9, Period: 10},
		{Name: "c", WCET: 9, Period: 10},
	}
	platform := partfeas.NewPlatform(0.3, 0.3)

	for _, thm := range partfeas.Theorems {
		rep, err := partfeas.TestTheorem(tasks, platform, thm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("theorem %v (α=%.3f): accepted=%v\n", thm, thm.Alpha(), rep.Accepted)
	}
	// Output:
	// theorem I.1 (α=2.000): accepted=false
	// theorem I.2 (α=2.414): accepted=false
	// theorem I.3 (α=2.980): accepted=false
	// theorem I.4 (α=3.340): accepted=false
}

// The two adversary strengths: σ_part (best partition) and σ_LP (best
// migrating/fluid scheduler). Their gap is what partitioning gives up.
func ExamplePartitionedMinScaling() {
	tasks := partfeas.TaskSet{
		{Name: "a", WCET: 2, Period: 3},
		{Name: "b", WCET: 2, Period: 3},
		{Name: "c", WCET: 2, Period: 3},
	}
	platform := partfeas.NewPlatform(1, 1)

	part, err := partfeas.PartitionedMinScaling(tasks, platform)
	if err != nil {
		log.Fatal(err)
	}
	lp, err := partfeas.MigratoryMinScaling(tasks, platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("σ_part = %.4f\n", part)
	fmt.Printf("σ_LP   = %.4f\n", lp)
	// Output:
	// σ_part = 1.3333
	// σ_LP   = 1.0000
}

// An accepted partition replayed in the exact simulator meets every
// deadline over a full hyperperiod.
func ExampleSimulateCtx() {
	tasks := partfeas.TaskSet{
		{Name: "a", WCET: 1, Period: 2},
		{Name: "b", WCET: 1, Period: 3},
		{Name: "c", WCET: 2, Period: 6},
	}
	platform := partfeas.NewPlatform(1, 1)
	rep, err := partfeas.Test(tasks, platform, partfeas.EDF, 1)
	if err != nil || !rep.Accepted {
		log.Fatal("expected acceptance")
	}
	in := partfeas.Instance{Tasks: tasks, Platform: platform, Scheduler: partfeas.EDF}
	res, _, err := partfeas.SimulateCtx(context.Background(), in,
		partfeas.SimulateOptions{Assignment: rep.Partition.Assignment, Alpha: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs=%d misses=%d\n", res.TotalJobs, res.TotalMisses)
	// Output:
	// jobs=6 misses=0
}

// MigratorySchedule builds the explicit migrating schedule behind the LP
// adversary — here for a set no partition can handle at speed 1.
func ExampleMigratorySchedule() {
	tasks := partfeas.TaskSet{
		{Name: "a", WCET: 2, Period: 3},
		{Name: "b", WCET: 2, Period: 3},
		{Name: "c", WCET: 2, Period: 3},
	}
	platform := partfeas.NewPlatform(1, 1)

	sched, ok, err := partfeas.MigratorySchedule(tasks, platform)
	if err != nil || !ok {
		log.Fatal(err)
	}
	fmt.Printf("slices per window: %d (duration %.4f)\n", len(sched.Slices), sched.TotalDuration())
	// Output:
	// slices per window: 3 (duration 1.0000)
}
