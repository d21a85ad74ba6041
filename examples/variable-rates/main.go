// Variable display rates (footnote 2): the paper's model assumes equal
// consumption rates, and offers two adaptations for mixed-rate libraries —
// budget every stream at the maximal rate, or use the greatest common
// divisor as a unit rate and treat each stream as a bundle of unit
// streams. This example quantifies what the unit-rate method buys for a
// library mixing audiobook-, SD- and HD-class streams.
//
//	go run ./examples/variable-rates
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	vod "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the two methods' capacities and buffer sizes to w.
func run(w io.Writer) error {
	spec := vod.Barracuda9LP()
	rates := []vod.BitRate{vod.Mbps(0.5), vod.Mbps(1.5), vod.Mbps(3)}
	set, err := vod.NewRateSet(rates)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rates: %v   unit: %v   max: %v\n\n", rates, set.Unit(), set.Max())

	maxP, err := set.MaxRateParams(spec.TransferRate, 1)
	if err != nil {
		return err
	}
	unitP, err := set.UnitRateParams(spec.TransferRate, 1)
	if err != nil {
		return err
	}

	// Capacity: the max-rate method charges every stream 3 Mbps; the
	// unit-rate method charges exactly what each consumes.
	fmt.Fprintf(w, "capacity, max-rate method:  %d streams (any mix)\n", maxP.N)
	fmt.Fprintf(w, "capacity, unit-rate method: %d unit slots =\n", unitP.N)
	for _, r := range rates {
		m, err := set.Multiple(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %8v -> %d slots each: up to %d such streams alone\n", r, m, unitP.N/m)
	}

	// Buffers: a mixed load of 30 physical streams, 10 of each rate.
	// Under the unit-rate method that is 10*(1+3+6) = 100 unit streams.
	m := vod.NewMethod(vod.RoundRobin)
	nUnits := 10*1 + 10*3 + 10*6
	dl := vod.WorstDiskLatency(m, spec, nUnits)
	fmt.Fprintf(w, "\nbuffers for 30 mixed streams (= %d unit streams), k = 4:\n", nUnits)
	fmt.Fprintf(w, "  %8s %14s %14s\n", "rate", "unit-rate BS", "max-rate BS")
	for _, r := range rates {
		unitBS, err := set.StreamBuffer(unitP, dl, nUnits, 4, r)
		if err != nil {
			return err
		}
		// Max-rate method: every stream is a 3 Mbps stream; 30 of them.
		maxBS := vod.DynamicBufferSize(maxP, vod.WorstDiskLatency(m, spec, 30), 30, 4)
		fmt.Fprintf(w, "  %8v %14v %14v\n", r, unitBS, maxBS)
	}
	fmt.Fprintln(w, "\nthe unit-rate method sizes each stream for what it actually")
	fmt.Fprintln(w, "consumes; the max-rate method charges everyone for HD.")
	return nil
}
