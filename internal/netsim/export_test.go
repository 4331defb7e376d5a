package netsim

import "fastflex/internal/eventsim"

// UtilTicker exposes the link-utilization ticker to the external tests.
func UtilTicker(n *Network) *eventsim.Ticker { return n.utilTicker }
