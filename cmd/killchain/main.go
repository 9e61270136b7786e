// Command killchain explores the Fig. 8 telemetry-cloud kill chain:
// run the attack against a chosen defence configuration and print the
// stage-by-stage trace.
//
// Usage:
//
//	killchain [-fleet N] [-points N] [-seed N] [-defend a,b,...]
//
// Defences take their canonical registry names, the same ones a
// scenario.ini [killchain] defences= line uses: enumeration-defence,
// disable-heapdump, secret-scrubbing, least-privilege,
// data-minimization, or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autosec/internal/killchain"
	"autosec/internal/sim"
	"autosec/internal/telemetry"
)

func main() {
	fleet := flag.Int("fleet", 800, "vehicles in the synthetic fleet")
	points := flag.Int("points", 50, "telemetry points per vehicle")
	seed := flag.Int64("seed", 42, "deterministic seed")
	defend := flag.String("defend", "", "comma-separated defences ("+strings.Join(killchain.DefenceNames(), ",")+",all)")
	flag.Parse()

	var defs []killchain.Defence
	for _, name := range strings.Split(*defend, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "all":
			defs = killchain.Defences()
		default:
			d, err := killchain.ParseDefence(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defs = append(defs, d)
		}
	}

	cloud := telemetry.NewCloud(killchain.Apply(defs...), *fleet, *points, sim.NewRNG(*seed))
	fmt.Printf("fleet: %d vehicles, %d records; defences: %v\n\n", cloud.Fleet(), cloud.TotalRecords(), defs)
	fmt.Print(killchain.Run(cloud))
}
