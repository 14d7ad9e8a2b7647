package netnode

import (
	"testing"

	"drp/internal/sra"
)

// The dev-loop rungs for the request path: one remote read (a JSON line
// each way on a warm link, both ends in this process) and local reads from
// every CPU at once (the node's shared state under contention); and for
// the control plane, one SRA deploy. bench/ is the judge; these are for
// iterating.

// benchPair returns a cluster and a (site, object) pair whose read is
// remote under the primaries-only placement.
func benchPair(b *testing.B) (*Cluster, int, int) {
	b.Helper()
	p := gen(b, 6, 24, 0.05, 0.5, 7)
	c, err := StartLocal(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	const k = 0
	return c, (p.Primary(k) + 1) % p.Sites(), k
}

func BenchmarkRemoteRead(b *testing.B) {
	c, site, k := benchPair(b)
	node := c.Node(site)
	if _, err := node.Read(k); err != nil { // opens the link
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.Read(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalReadParallel(b *testing.B) {
	c, site, k := benchPair(b)
	node := c.Node((site + c.Sites() - 1) % c.Sites()) // k's primary
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := node.Read(k); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkDeploy times an SRA deploy of the mixed_sra-shaped instance onto
// a fresh memory cluster (booting and closing it are not timed) and
// reports the coordinator commands it sends.
func BenchmarkDeploy(b *testing.B) {
	in := benchInstances(b)[0]
	scheme := sra.Run(in.p, sra.Options{}).Scheme
	commands := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := startBench(b, in.p, in.durable)
		sent := countCommands(c, -1)
		b.StartTimer()
		if _, err := c.Deploy(scheme); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		commands += *sent
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(commands)/float64(b.N), "commands/op")
}
