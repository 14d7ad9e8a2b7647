package drp_test

import (
	"fmt"
	"log"
	"slices"

	"drp"
)

// Generate a random distributed system, solve it with the greedy SRA and
// the genetic GRA, and inspect a placement. SRA takes microseconds; GRA is
// orders of magnitude slower and finds the better scheme.
func Example() {
	// 20 sites, 60 objects, updates at 5% of reads, and each site able to
	// store ~15% of the object population.
	p, err := drp.Generate(drp.NewSpec(20, 60, 0.05, 0.15), 42)
	if err != nil {
		log.Fatal(err)
	}
	fast := drp.SRA(p)
	params := drp.DefaultGRAParams()
	params.Seed = 42
	good, err := drp.GRA(p, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sites, %d objects\n", p.Sites(), p.Objects())
	fmt.Println("both save transfer cost:", fast.Scheme.Savings() > 0 && good.Scheme.Savings() > 0)
	fmt.Println("GRA saves at least as much as SRA:", good.Scheme.Savings() >= fast.Scheme.Savings())
	// Every object keeps its primary copy among its replicators.
	fmt.Println("object 0 is held at its primary:", slices.Contains(good.Scheme.Replicators(0), p.Primary(0)))
	// Output:
	// 20 sites, 60 objects
	// both save transfer cost: true
	// GRA saves at least as much as SRA: true
	// object 0 is held at its primary: true
}

// CDN mirror placement: three origin sites publish objects, every edge site
// reads them heavily, and only the owning origin writes, rarely. Replication
// here is mirror placement, the regime where the cheap greedy is nearly as
// good as the genetic algorithm (SRA ≈ GRA).
func Example_cdn() {
	const sites, objects = 30, 120
	dist, err := drp.RandomTopology(sites, 0.15, 1, 10, 7).Distances()
	if err != nil {
		log.Fatal(err)
	}
	sizes := make([]int64, objects)
	primaries := make([]int, objects)
	reads := make([][]int64, sites)
	writes := make([][]int64, sites)
	for i := range reads {
		reads[i] = make([]int64, objects)
		writes[i] = make([]int64, objects)
	}
	for k := 0; k < objects; k++ {
		sizes[k] = int64(5 + (k*13)%60)
		primaries[k] = k % 3
		for i := 0; i < sites; i++ {
			// A coarse Zipf-like popularity ladder.
			reads[i][k] = int64(1+200/(k+1)) + int64((i*7+k*3)%25)
		}
		writes[primaries[k]][k] = 2 // publish events
	}
	p, err := drp.NewProblem(drp.ProblemConfig{
		Sizes:      sizes,
		Capacities: capacities(sites, sizes, primaries, 5), // each edge mirrors ~20% of the catalogue
		Primaries:  primaries,
		Reads:      reads,
		Writes:     writes,
		Dist:       dist,
	})
	if err != nil {
		log.Fatal(err)
	}
	sra := drp.SRA(p)
	params := drp.DefaultGRAParams()
	params.Generations = 40
	params.Seed = 7
	gra, err := drp.GRA(p, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mirrors save over half the traffic:", sra.Scheme.Savings() > 50)
	fmt.Println("SRA within one point of GRA:", gra.Scheme.Savings()-sra.Scheme.Savings() < 1)
	// Output:
	// mirrors save over half the traffic: true
	// SRA within one point of GRA: true
}

// Distributed database cluster: analytics sites read every table while
// each table's owner and its two neighbours update it constantly. Placement
// that ignores updates floods the network with broadcasts; SRA prices them,
// and GRA explores placements the greedy's local view cannot reach
// (read-blind < SRA < GRA).
func Example_dbcluster() {
	const sites, tables = 24, 80
	dist, err := drp.CompleteTopology(sites, 1, 10, 11).Distances()
	if err != nil {
		log.Fatal(err)
	}
	sizes := make([]int64, tables)
	primaries := make([]int, tables)
	reads := make([][]int64, sites)
	writes := make([][]int64, sites)
	for i := range reads {
		reads[i] = make([]int64, tables)
		writes[i] = make([]int64, tables)
	}
	for k := 0; k < tables; k++ {
		sizes[k] = int64(10 + (k*17)%50)
		primaries[k] = k % sites
		for i := 0; i < sites; i++ {
			reads[i][k] = int64(5 + (i*11+k*5)%30)
			switch {
			case i == primaries[k]:
				writes[i][k] = 60
			case i == (primaries[k]+1)%sites || i == (primaries[k]+sites-1)%sites:
				writes[i][k] = 25
			}
		}
	}
	p, err := drp.NewProblem(drp.ProblemConfig{
		Sizes:      sizes,
		Capacities: capacities(sites, sizes, primaries, 8),
		Primaries:  primaries,
		Reads:      reads,
		Writes:     writes,
		Dist:       dist,
	})
	if err != nil {
		log.Fatal(err)
	}
	blind := drp.ReadOnlyGreedy(p)
	sra := drp.SRA(p)
	params := drp.DefaultGRAParams()
	params.Seed = 11
	gra, err := drp.GRA(p, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read-blind placement costs more than no replication:", blind.Savings() < 0)
	fmt.Println("read-blind < SRA < GRA:", blind.Savings() < sra.Scheme.Savings() && sra.Scheme.Savings() < gra.Scheme.Savings())
	// Output:
	// read-blind placement costs more than no replication: true
	// read-blind < SRA < GRA: true
}

// capacities gives every site 1/share of the total object size, raised
// where needed to hold the primaries the site owns.
func capacities(sites int, sizes []int64, primaries []int, share int64) []int64 {
	var total int64
	need := make([]int64, sites)
	for k, sz := range sizes {
		total += sz
		need[primaries[k]] += sz
	}
	caps := make([]int64, sites)
	for i := range caps {
		caps[i] = max(total/share, need[i])
	}
	return caps
}

// Adaptive replication under a daytime pattern shift, the paper's adaptive
// test case (M=50, N=200, U=5%, C=15%). A nightly GRA scheme goes stale
// when 20% of the objects shift by 600%, 70% of them toward reads. AGRA
// re-optimises only the changed objects, starting from the night's
// population, and recovers the savings a full GA re-run would find.
func Example_adaptive() {
	p, err := drp.Generate(drp.NewSpec(50, 200, 0.05, 0.15), 99)
	if err != nil {
		log.Fatal(err)
	}
	night := drp.DefaultGRAParams()
	night.Generations = 40
	night.Seed = 99
	static, err := drp.GRA(p, night)
	if err != nil {
		log.Fatal(err)
	}
	day, changes, err := drp.ApplyChange(p, drp.ChangeSpec{Ch: 6.0, ObjectShare: 0.20, ReadShare: 0.70}, 100)
	if err != nil {
		log.Fatal(err)
	}
	changed := make([]int, len(changes))
	for i, c := range changes {
		changed[i] = c.Object
	}
	stale, err := drp.RebindScheme(day, static.Scheme)
	if err != nil {
		log.Fatal(err)
	}
	agra := drp.DefaultAGRAParams()
	agra.Seed = 101
	mini := drp.DefaultGRAParams()
	mini.PopSize = 20
	mini.Seed = 101
	adapted, err := drp.Adapt(drp.AdaptInput{
		Problem:       day,
		Current:       stale,
		GRAPopulation: static.Population,
		Changed:       changed,
	}, agra, mini, 5)
	if err != nil {
		log.Fatal(err)
	}
	full := drp.DefaultGRAParams()
	full.Generations = 80
	full.Seed = 102
	rerun, err := drp.GRA(day, full)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d objects changed\n", len(changed))
	fmt.Println("AGRA + 5 mini-GRA beats the stale scheme:", adapted.Savings > stale.Savings())
	fmt.Println("and matches a full GRA re-run:", adapted.Savings >= rerun.Scheme.Savings())
	// Output:
	// 40 objects changed
	// AGRA + 5 mini-GRA beats the stale scheme: true
	// and matches a full GRA re-run: true
}

// A Zipf-skewed web workload (skew 0.9) served by the epoch simulator under
// pattern drift: a frozen SRA scheme against the adaptive AGRA monitor on
// the same traffic. The frozen scheme cannot exploit the new read hotspots.
func Example_zipfweb() {
	p, err := drp.GenerateZipf(drp.NewZipfSpec(25, 150, 0.05, 0.15, 0.9), 21)
	if err != nil {
		log.Fatal(err)
	}
	initial := drp.SRA(p).Scheme
	gra := drp.DefaultGRAParams()
	gra.PopSize = 16
	gra.Generations = 12
	cfg := drp.ClusterConfig{
		Epochs:     6,
		Drift:      &drp.ChangeSpec{Ch: 5, ObjectShare: 0.15, ReadShare: 0.6},
		GRAParams:  gra,
		AGRAParams: drp.DefaultAGRAParams(),
		Seed:       21,
	}
	ntc := map[drp.ClusterPolicy]int64{}
	for _, policy := range []drp.ClusterPolicy{drp.PolicyNone, drp.PolicyAGRAMini} {
		cfg.Policy = policy
		res, err := drp.ClusterRun(p, initial, cfg)
		if err != nil {
			log.Fatal(err)
		}
		ntc[policy] = res.TotalNTC()
	}
	fmt.Println("the adaptive monitor moves less data than the frozen scheme:", ntc[drp.PolicyAGRAMini] < ntc[drp.PolicyNone])
	// Output:
	// the adaptive monitor moves less data than the frozen scheme: true
}
