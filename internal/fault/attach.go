package fault

import (
	"drp/internal/netnode"
)

// Attach wires an injector into a running netnode cluster: every attempt
// of every node's outbound calls and of the coordinator's commands asks
// the injector first, naming the site it goes to, and the traffic driver
// advances the injector's logical clock once per request. A node's gate
// outlives a RestartNode of its site; a site that joins later needs its
// own (node.SetDialer).
//
// Attach only installs middleware — retry policy and per-request timeouts
// stay the cluster's to configure (netnode.Cluster.SetRetry /
// SetRequestTimeout).
func Attach(c *netnode.Cluster, in *Injector) {
	for i := 0; i < c.Sites(); i++ {
		if node := c.Node(i); node != nil {
			node.SetDialer(in.dialerFor(i))
		}
	}
	c.SetCommandDialer(in.dialerFor(coordinator))
	c.SetRequestHook(in.advance)
}
