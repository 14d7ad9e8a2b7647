package netnode

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"drp/internal/metrics"
	"drp/internal/spans"
	"drp/internal/store"
)

// clusterSetting is one setting every call of a cluster runs under, as
// the oracle below drives it: set changes it to its value number v (1 or
// 2) and check fails unless the calls of site s run under value v.
type clusterSetting struct {
	name string
	// siteGate marks a setting made through the site's own node, which
	// a site that has not joined, or has left, does not have.
	siteGate bool
	make     func(t *testing.T, s int) (set func(c *Cluster, v int), check func(c *Cluster, v int))
}

// The observed read: object held, under the primaries-only placement, by
// site owner alone, so a read of it from any other site is one hop to
// owner.
const settingsObject, settingsOwner = 3, 3

// remoteRead has site s read settingsObject and fails the test unless the
// read costs exactly its one hop.
func remoteRead(t *testing.T, c *Cluster, s int) {
	t.Helper()
	cost, err := c.Node(s).Read(settingsObject)
	if want := c.p.Size(settingsObject) * c.p.Cost(s, settingsOwner); err != nil || cost != want {
		t.Fatalf("site %d's read of object %d: cost %d, %v; want %d", s, settingsObject, cost, err, want)
	}
}

// recordingGates returns two gates that pass every attempt and record the
// peers site s's attempts go to, one record per gate.
func recordingGates(s int) ([3]Dialer, *[3][]int) {
	var gates [3]Dialer
	asked := new([3][]int)
	for v := 1; v <= 2; v++ {
		gates[v] = func(from, to int) error {
			if from == s {
				asked[v] = append(asked[v], to)
			}
			return nil
		}
	}
	return gates, asked
}

// checkGates fails unless site s's read asked gate v alone.
func checkGates(t *testing.T, c *Cluster, s int, asked *[3][]int, v int) {
	t.Helper()
	*asked = [3][]int{}
	remoteRead(t, c, s)
	if len(asked[v]) != 1 || asked[v][0] != settingsOwner || len(asked[3-v]) != 0 {
		t.Fatalf("site %d's read asked gate %d for %v and gate %d for %v; want gate %d alone, for site %d",
			s, v, asked[v], 3-v, asked[3-v], v, settingsOwner)
	}
}

var clusterSettings = []clusterSetting{
	{name: "cluster gate", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		gates, asked := recordingGates(s)
		return func(c *Cluster, v int) { c.SetCommandDialer(gates[v]) },
			func(c *Cluster, v int) { checkGates(t, c, s, asked, v) }
	}},
	{name: "site gate", siteGate: true, make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		gates, asked := recordingGates(s)
		return func(c *Cluster, v int) { c.Node(s).SetDialer(gates[v]) },
			func(c *Cluster, v int) { checkGates(t, c, s, asked, v) }
	}},
	{name: "site gate, then cluster gate", siteGate: true, make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		gates, asked := recordingGates(s)
		return func(c *Cluster, v int) {
				if v == 1 {
					c.Node(s).SetDialer(gates[v])
				} else {
					c.SetCommandDialer(gates[v])
				}
			},
			func(c *Cluster, v int) { checkGates(t, c, s, asked, v) }
	}},
	{name: "attempts", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		return func(c *Cluster, v int) { c.SetRetry(v + 1) },
			func(c *Cluster, v int) {
				tries := 0
				c.SetCommandDialer(func(from, _ int) error {
					if from != s {
						return nil
					}
					tries++
					return errors.New("closed to the site's calls")
				})
				defer c.SetCommandDialer(nil)
				if _, err := c.Node(s).Read(settingsObject); !errors.Is(err, ErrNoReplica) {
					t.Fatalf("read through a closed gate: %v, want %v", err, ErrNoReplica)
				}
				if tries != v+1 {
					t.Fatalf("site %d's read made %d attempts, want %d", s, tries, v+1)
				}
			}
	}},
	{name: "deadline", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		// Value 1 is an hour, value 2 none. A link remembers whether its
		// last exchange ran under a deadline.
		return func(c *Cluster, v int) { c.SetRequestTimeout(time.Duration(2-v) * time.Hour) },
			func(c *Cluster, v int) {
				remoteRead(t, c, s)
				links := &c.Node(s).links
				links.mu.Lock()
				idle := links.idle[c.Node(settingsOwner).Addr()]
				links.mu.Unlock()
				if len(idle) != 1 {
					t.Fatalf("site %d keeps %d idle links to site %d after one read, want 1", s, len(idle), settingsOwner)
				}
				if got, want := idle[0].timed, v == 1; got != want {
					t.Fatalf("site %d's read ran under a deadline: %v, want %v", s, got, want)
				}
			}
	}},
	{name: "metrics", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		regs := [3]*metrics.Registry{nil, metrics.NewRegistry(), metrics.NewRegistry()}
		remote := func(v int) int64 {
			return regs[v].Counter("drp_net_replica_reads_total", "", metrics.Labels{"source": "remote"}).Value()
		}
		return func(c *Cluster, v int) { c.EnableMetrics(regs[v]) },
			func(c *Cluster, v int) {
				remoteRead(t, c, s)
				if remote(v) != 1 || remote(3-v) != 0 {
					t.Fatalf("registry %d counted %d remote reads and registry %d %d; want 1 in registry %d alone",
						v, remote(v), 3-v, remote(3-v), v)
				}
			}
	}},
	{name: "tracer", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		cols := [3]*spans.Collector{nil, {}, {}}
		tracers := [3]*spans.Tracer{nil, spans.New(cols[1]), spans.New(cols[2])}
		reads := func(v int) int {
			n := 0
			for _, sp := range cols[v].Spans() {
				if sp.Name == "read" && sp.Site == s {
					n++
				}
			}
			return n
		}
		return func(c *Cluster, v int) { c.EnableTracing(tracers[v]) },
			func(c *Cluster, v int) {
				remoteRead(t, c, s)
				if reads(v) != 1 || reads(3-v) != 0 {
					t.Fatalf("tracer %d holds %d read roots of site %d and tracer %d %d; want 1 in tracer %d alone",
						v, reads(v), s, 3-v, reads(3-v), v)
				}
			}
	}},
	{name: "peer table", make: func(t *testing.T, s int) (func(*Cluster, int), func(*Cluster, int)) {
		// Restarting the owner moves it to a new port; the old one has
		// no listener, so a read sent by a stale table fails.
		return func(c *Cluster, _ int) {
				if _, err := c.RestartNode(settingsOwner); err != nil {
					t.Fatal(err)
				}
			},
			func(c *Cluster, _ int) { remoteRead(t, c, s) }
	}},
}

// TestBootedNodesRunUnderClusterSettings: however a site's node boots —
// with the cluster, by Join, by a Join after Leave, by RestartNode after
// Kill — its calls run under the cluster's current settings: each one
// changed before the site went away and again while it was away (or
// down), the node observes the later value.
func TestBootedNodesRunUnderClusterSettings(t *testing.T) {
	p := viewProblem(t)
	const s = 4 // a site with no primary: it can boot after the others and leave undrained
	all, founders := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}
	join := func(t *testing.T, c *Cluster) {
		if _, err := c.Join(s); err != nil {
			t.Fatal(err)
		}
	}
	paths := []struct {
		name    string
		members []int
		joins   bool // the site has no node until back runs
		away    func(t *testing.T, c *Cluster)
		back    func(t *testing.T, c *Cluster)
	}{
		{name: "start", members: all},
		{name: "join", members: founders, joins: true, back: join},
		{name: "rejoin", members: all, joins: true, away: func(t *testing.T, c *Cluster) {
			if err := c.Leave(s); err != nil {
				t.Fatal(err)
			}
		}, back: join},
		{name: "restart", members: all, away: func(t *testing.T, c *Cluster) {
			if err := c.Node(s).Kill(); err != nil {
				t.Fatal(err)
			}
		}, back: func(t *testing.T, c *Cluster) {
			if _, err := c.RestartNode(s); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, path := range paths {
		for _, setting := range clusterSettings {
			if setting.siteGate && path.joins {
				continue
			}
			for _, during := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/before", path.name, setting.name)
				if during {
					name = fmt.Sprintf("%s/%s/during", path.name, setting.name)
				}
				t.Run(name, func(t *testing.T) {
					c, err := StartDurableView(p, t.TempDir(), store.Options{Sync: store.SyncNever}, path.members)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(c.Close)
					set, check := setting.make(t, s)
					set(c, 1)
					if path.away != nil {
						path.away(t, c)
					}
					want := 1
					if during {
						set(c, 2)
						want = 2
					}
					if path.back != nil {
						path.back(t, c)
					}
					check(c, want)
				})
			}
		}
	}
}

// TestSiteGateOutlivesItsNode: the gate Node.SetDialer sets is the
// site's, so the node a Join boots after Leave runs under it, set though
// it was through the departed node; nil and SetCommandDialer clear it,
// handing the site's calls back to the cluster's gate.
func TestSiteGateOutlivesItsNode(t *testing.T) {
	p := viewProblem(t)
	const s = 4
	c, err := StartDurableView(p, t.TempDir(), store.Options{Sync: store.SyncNever}, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	gates, asked := recordingGates(s)
	c.SetCommandDialer(gates[2])
	old := c.Node(s)
	if err := c.Leave(s); err != nil {
		t.Fatal(err)
	}
	old.SetDialer(gates[1])
	if _, err := c.Join(s); err != nil {
		t.Fatal(err)
	}
	checkGates(t, c, s, asked, 1)
	c.Node(s).SetDialer(nil)
	checkGates(t, c, s, asked, 2)
	c.Node(s).SetDialer(gates[1])
	c.SetCommandDialer(gates[2])
	checkGates(t, c, s, asked, 2)
}
