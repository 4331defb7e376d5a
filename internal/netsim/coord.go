package netsim

import "fastflex/internal/eventsim"

// CoordSite names a kind of code that schedules on the coordinator engine.
// Each site has one rank owner per network (Owner), keyed in a band above
// every switch, link and source key, so a later merge of coordinator and
// partition events needs no re-keying. Same-instant coordinator events fire
// in site order, as listed; the events of one site — every traceroute's
// timeout, every sampler's tick — fire in the order they were scheduled.
// The order follows how far ahead each site schedules: a one-shot
// scripted at setup precedes a 30 s TE cycle, which precedes a 100 ms
// heartbeat and the 50 ms utilization window.
type CoordSite uint8

const (
	SiteScript     CoordSite = iota // experiment timelines, scheduled at setup
	SiteTE                          // control: the periodic TE recomputation
	SiteAttack                      // attack: Crossfire launch and scouting rounds
	SitePulse                       // attack: pulsing on/off toggles
	SiteRepurpose                   // state: end of a repurposing blackout
	SiteSampler                     // metrics: throughput samplers
	SiteTraceroute                  // netsim: traceroute reply timeouts
	SiteInstall                     // control: route install after the control latency
	SiteHeartbeat                   // core: the telemetry heartbeat
	SiteUtil                        // netsim: link-utilization windows
	numSites
)

// coordBand is the first coordinator key. Traffic sources mint keys
// upward from the end of the link range and must stay below it.
const coordBand = 1 << 31

// Owner returns the rank owner of a coordinator site. Every event on Eng
// is ranked by one of these.
func (n *Network) Owner(s CoordSite) *eventsim.RankOwner { return &n.coord[s] }
