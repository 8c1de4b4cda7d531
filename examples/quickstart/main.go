// Quickstart: run the paper's four feasibility tests on a small embedded
// workload and inspect the witness partition.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"partfeas"
)

func main() {
	// A small mixed-criticality workload: WCET and period in the same
	// integer time unit (say, milliseconds). Utilization w = C/P.
	tasks := partfeas.TaskSet{
		{Name: "video-decode", WCET: 9, Period: 30},  // w ≈ 0.30
		{Name: "audio", WCET: 1, Period: 4},          // w = 0.25
		{Name: "network", WCET: 3, Period: 10},       // w = 0.30
		{Name: "ui", WCET: 2, Period: 12},            // w ≈ 0.17
		{Name: "sensor-fusion", WCET: 7, Period: 20}, // w = 0.35
		{Name: "logging", WCET: 1, Period: 50},       // w = 0.02
	}
	// A heterogeneous platform: two little cores and one big core.
	platform := partfeas.NewPlatform(1, 1, 4)

	fmt.Printf("tasks: total utilization %.3f on total speed %.3f\n\n",
		tasks.TotalUtilization(), platform.TotalSpeed())

	// The basic call: the paper's first-fit test with EDF on each
	// machine, no speed augmentation.
	report, err := partfeas.Test(tasks, platform, partfeas.EDF, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	if report.Accepted {
		fmt.Println("FF-EDF accepts at α=1; witness partition:")
		for j := range platform {
			fmt.Printf("  %s (speed %g): load %.3f —",
				platform[j].Name, platform[j].Speed, report.Partition.Loads[j])
			for i, mj := range report.Partition.Assignment {
				if mj == j {
					fmt.Printf(" %s", tasks[i].Name)
				}
			}
			fmt.Println()
		}
	} else {
		fmt.Printf("FF-EDF rejects at α=1 (failing task %v)\n",
			tasks[report.Partition.FailedTask])
	}

	// The theorem-grade calls: run at each proved augmentation factor. A
	// rejection here is a *certificate* that the theorem's adversary
	// (optimal partitioned scheduler for I.1/I.2, migrating fractional
	// scheduler for I.3/I.4) cannot schedule the set at original speeds.
	fmt.Println("\ntheorem-grade tests:")
	for _, thm := range partfeas.Theorems {
		rep, err := partfeas.TestTheorem(tasks, platform, thm)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "reject (adversary infeasible at speed 1)"
		if rep.Accepted {
			verdict = "accept"
		}
		fmt.Printf("  theorem %v: %v vs %v at α=%.3f → %s\n",
			thm, thm.Scheduler(), thm.Adversary(), thm.Alpha(), verdict)
	}

	// Validate the accepted partition end to end: replay one hyperperiod
	// of synchronous periodic releases in the exact simulator.
	in := partfeas.Instance{Tasks: tasks, Platform: platform, Scheduler: partfeas.EDF}
	sim, _, err := partfeas.SimulateCtx(context.Background(), in,
		partfeas.SimulateOptions{Assignment: report.Partition.Assignment, Alpha: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation over one hyperperiod: %d jobs, %d deadline misses\n",
		sim.TotalJobs, sim.TotalMisses)
}
