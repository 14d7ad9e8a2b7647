package fault

import (
	"drp/internal/netnode"
)

// Attach wires an injector into a running netnode cluster: every attempt
// of every node's outbound calls and of the coordinator's commands asks
// the injector first, naming the sites it comes from and goes to, and the
// traffic driver advances the injector's logical clock once per request.
// The injector becomes the gate of the cluster's one settings record, in
// place of any site's own (Node.SetDialer), so it gates every node booted
// later too: a joiner from its join sync on, a rejoiner, a restarted site.
//
// Attach only installs middleware — retry policy and per-request timeouts
// stay the cluster's to configure (netnode.Cluster.SetRetry /
// SetRequestTimeout).
func Attach(c *netnode.Cluster, in *Injector) {
	c.SetCommandDialer(in.gate)
	c.SetRequestHook(in.advance)
}
