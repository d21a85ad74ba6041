// Capacity planning with the paper's analysis: how much memory does a
// multi-disk VOD server need for a target concurrency, and how many
// viewers does a given amount of memory buy?
//
// This is the operator-facing use of Theorems 2–4: the same formulas the
// simulation's admission governor uses (Figs. 13–14) answer provisioning
// questions directly, without simulating anything.
//
//	go run ./examples/capacity-planning
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	vod "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints both provisioning tables to w.
func run(w io.Writer) error {
	spec, _, params := vod.PaperEnvironment()
	method := vod.NewMethod(vod.RoundRobin)
	const disks = 10
	const k = 4 // the paper's measured worst-average prediction for RR

	fmt.Fprintf(w, "server: %d x %s, %v streams, Round-Robin/BubbleUp\n", disks, spec.Name, vod.Mbps(1.5))
	fmt.Fprintf(w, "aggregate disk capacity: %d concurrent viewers\n\n", disks*params.N)

	// Question 1: memory needed for a target of evenly loaded viewers.
	fmt.Fprintln(w, "memory needed to guarantee a target concurrency (even disk load):")
	fmt.Fprintf(w, "  %8s %14s %14s %9s\n", "viewers", "static", "dynamic", "saving")
	for _, target := range []int{100, 200, 400, 600, 790} {
		perDisk := (target + disks - 1) / disks
		kk := k
		if kk > params.N-perDisk {
			kk = params.N - perDisk
		}
		static := float64(vod.MinMemoryStatic(params, method, spec, perDisk)) * disks
		dynamic := float64(vod.MinMemoryDynamic(params, method, spec, perDisk, kk)) * disks
		fmt.Fprintf(w, "  %8d %13.2fGB %13.2fGB %8.1fx\n",
			target, vod.Bits(static).GigabytesVal(), vod.Bits(dynamic).GigabytesVal(), static/dynamic)
	}

	// Question 2: viewers supported by a given memory budget, assuming
	// the popularity-driven load imbalance of Wolf et al. (Zipf 0.271
	// across disks) and spending memory greedily where it is cheapest.
	fmt.Fprintln(w, "\nviewers supported by a memory budget (Zipf(0.271) disk load):")
	fmt.Fprintf(w, "  %8s %10s %10s\n", "memory", "static", "dynamic")
	for _, gb := range []float64{1, 2, 4, 8, 11} {
		budget := vod.Gigabytes(gb)
		fmt.Fprintf(w, "  %7.1fG %10d %10d\n", gb,
			plan(params, method, spec, false, budget),
			plan(params, method, spec, true, budget))
	}
	fmt.Fprintln(w, "\nthe dynamic scheme moves saved memory to the hot disks, which is")
	fmt.Fprintln(w, "exactly the load-imbalance argument of Section 5.3.")
	return nil
}

// plan greedily admits viewers across the disks until the budget is
// exhausted, always placing the next viewer where the added reservation
// is smallest (the memory curves are convex, so this maximizes count).
func plan(p vod.Params, m vod.Method, spec vod.DiskSpec, dynamic bool, budget vod.Bits) int {
	const disks = 10
	const k = 4
	weights := zipfWeights(disks, 0.271)
	memFor := func(n int) vod.Bits {
		if n == 0 {
			return 0
		}
		if dynamic {
			kk := k
			if kk > p.N-n {
				kk = p.N - n
			}
			return vod.MinMemoryDynamic(p, m, spec, n, kk)
		}
		return vod.MinMemoryStatic(p, m, spec, n)
	}
	// Demand caps per disk: a popularity-skewed offered load of 1000.
	caps := make([]int, disks)
	for d := range caps {
		caps[d] = int(weights[d] * 1000)
		if caps[d] > p.N {
			caps[d] = p.N
		}
	}
	n := make([]int, disks)
	var used vod.Bits
	total := 0
	for {
		best, bestCost := -1, vod.Bits(0)
		for d := range n {
			if n[d] >= caps[d] {
				continue
			}
			cost := memFor(n[d]+1) - memFor(n[d])
			if best < 0 || cost < bestCost {
				best, bestCost = d, cost
			}
		}
		if best < 0 || used+bestCost > budget {
			return total
		}
		used += bestCost
		n[best]++
		total++
	}
}

// zipfWeights reproduces the paper's Zipf convention locally: weight_i
// proportional to (1/i)^(1−theta), normalized.
func zipfWeights(n int, theta float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(1/float64(i+1), 1-theta)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
