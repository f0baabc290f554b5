package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"colibri/internal/admission"
	"colibri/internal/core"
	"colibri/internal/cserv"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// env is the base setup every workload starts from: the 4-ISD, 68-AS
// generated topology of core's internet-scale scenario, a network with the
// full protection stack (telemetry, replay suppression, OFD), and the SegR
// mesh bootstrapped within every link's EER share.
type env struct {
	topo    *topology.Topology
	net     *core.Network
	rng     *rand.Rand
	segKbps uint64
	// leaves are the leaf ASes (beyond cores and providers), sorted.
	leaves []topology.IA
	// lastSegRenew is the virtual second of the last SegR keep-alive pass.
	lastSegRenew uint32
	// tickLat holds the duration of every Network.Tick since the last
	// reset; every workload runs it once per virtual second.
	tickLat []int64
}

// Base topology shape (core's TestInternetScaleScenario).
const (
	isds            = 4
	coresPerISD     = 3
	providersPerISD = 4
	leavesPerISD    = 10
)

// segRLead renews SegRs this many seconds before their 300 s lifetime ends.
const segRLead = 60

// newEnv builds the base setup. opts may carry workload-specific fields
// (CPlane sharding, a transport wrapper); the protection stack is always on.
func newEnv(seed int64, opts core.Options) (*env, error) {
	topo := topology.Generate(topology.GenSpec{
		ISDs: isds, CoresPerISD: coresPerISD, ProvidersPerISD: providersPerISD,
		LeavesPerISD: leavesPerISD, ProviderUplinks: 2, LeafUplinks: 2, Seed: seed,
	})
	opts.Telemetry = true
	opts.EnableReplaySuppression = true
	opts.EnableOFD = true
	net, err := core.NewNetwork(topo, opts)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	e := &env{
		topo: topo,
		net:  net,
		rng:  rand.New(rand.NewSource(seed)),
	}
	for _, as := range topo.NonCoreASes() {
		if int(as.IA.AS()) > coresPerISD+providersPerISD {
			e.leaves = append(e.leaves, as.IA)
		}
	}
	sort.Slice(e.leaves, func(i, j int) bool { return e.leaves[i] < e.leaves[j] })
	e.segKbps = meshKbps(topo, net.Registry)
	if opts.CPlaneShards > 1 {
		// A sharded CPlane splits every interface's capacity evenly over
		// its shards, and any shard may own all the SegRs of an interface.
		e.segKbps = e.segKbps / uint64(opts.CPlaneShards) / 1000 * 1000
	}
	if err := net.AutoSetupSegRs(e.segKbps); err != nil {
		net.Close()
		return nil, fmt.Errorf("SegR mesh: %w", err)
	}
	if err := e.checkSegRs(); err != nil {
		net.Close()
		return nil, err
	}
	e.lastSegRenew = net.Clock.NowSec()
	return e, nil
}

// meshSegments lists the segments AutoSetupSegRs reserves.
func meshSegments(topo *topology.Topology, reg *segment.Registry) []*segment.Segment {
	var segs []*segment.Segment
	for _, as := range topo.NonCoreASes() {
		segs = append(segs, reg.UpSegments(as.IA)...)
		segs = append(segs, reg.DownSegments(as.IA)...)
	}
	for _, a := range topo.CoreASes() {
		for _, b := range topo.CoreASes() {
			if a.IA != b.IA {
				segs = append(segs, reg.CoreSegments(a.IA, b.IA)...)
			}
		}
	}
	return segs
}

// meshKbps picks the largest per-SegR bandwidth (in whole Mbps) at which
// every SegR of the mesh fits the EER share of every interface it crosses,
// so no SegR is admitted below its request (a SegR over a full egress is
// admitted at 0 kbps by design, §4.2).
func meshKbps(topo *topology.Topology, reg *segment.Registry) uint64 {
	// Admission caps each interface per direction, so ingress and egress
	// use are counted apart.
	type port struct {
		ia     topology.IA
		id     topology.IfID
		egress bool
	}
	load := make(map[port]uint64)
	for _, seg := range meshSegments(topo, reg) {
		for _, h := range seg.Hops {
			if h.In != 0 {
				load[port{h.IA, h.In, false}]++
			}
			if h.Eg != 0 {
				load[port{h.IA, h.Eg, true}]++
			}
		}
	}
	best := uint64(0)
	for p, n := range load {
		share := admission.DefaultSplit.EERShare(topo.AS(p.ia).Interface(p.id).CapacityKbps())
		if per := share / n; best == 0 || per < best {
			best = per
		}
	}
	return best / 1000 * 1000
}

// checkSegRs asserts that every SegR of the mesh carries the requested
// bandwidth.
func (e *env) checkSegRs() error {
	n := 0
	for _, ia := range e.topo.SortedIAs() {
		for _, s := range e.net.Node(ia).CServ.Store().InitiatedSegRs() {
			n++
			if s.Active.BwKbps != e.segKbps {
				return fmt.Errorf("SegR %s admitted at %d kbps, requested %d", s.ID, s.Active.BwKbps, e.segKbps)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no SegRs established")
	}
	return nil
}

// tick moves virtual time forward by one second and runs the housekeeping
// a deployment runs every second, Network.Tick.
func (e *env) tick(tr *tracer) {
	e.net.Clock.Advance(1e9)
	e.runTick(tr)
}

// runTick runs Network.Tick, timing it into tickLat and, when tr is
// non-nil, as a root span.
func (e *env) runTick(tr *tracer) {
	if tr != nil {
		tr.newRequest()
		tr.begin(spTick)
	}
	t := time.Now()
	e.net.Tick()
	e.tickLat = append(e.tickLat, int64(time.Since(t)))
	if tr != nil {
		tr.end(0)
	}
}

// advance ticks whole seconds, keeping the SegRs alive.
func (e *env) advance(seconds int) error {
	for i := 0; i < seconds; i++ {
		e.tick(nil)
		if err := e.renewSegRs(); err != nil {
			return err
		}
	}
	return nil
}

// renewSegRs runs the SegR keep-alive (Service.AutoRenew at every AS) once
// every segRLead/2 virtual seconds. The workloads compress minutes of
// virtual time into seconds, so they run it outside their timed loops: at
// the real 300 s SegR lifetime its cost per second is negligible.
func (e *env) renewSegRs() error {
	now := e.net.Clock.NowSec()
	if now-e.lastSegRenew < segRLead/2 {
		return nil
	}
	e.lastSegRenew = now
	for _, ia := range e.topo.SortedIAs() {
		if _, err := e.net.Node(ia).CServ.AutoRenew(segRLead, cserv.SameBandwidth); err != nil {
			return fmt.Errorf("SegR renewal at %s: %w", ia, err)
		}
	}
	return e.checkSegRs()
}

// crossISDPair draws a random ordered pair of leaf ASes in different ISDs.
func (e *env) crossISDPair() (src, dst topology.IA) {
	for {
		src = e.leaves[e.rng.Intn(len(e.leaves))]
		dst = e.leaves[e.rng.Intn(len(e.leaves))]
		if src.ISD() != dst.ISD() {
			return src, dst
		}
	}
}

// counterSum sums one telemetry counter over every AS.
func (e *env) counterSum(name string) uint64 {
	var n uint64
	for _, s := range e.net.TelemetrySnapshots() {
		n += s.Counters[name]
	}
	return n
}

// histSum merges one telemetry histogram over every AS.
func (e *env) histSum(name string) telemetry.HistSnapshot {
	var h telemetry.HistSnapshot
	for _, s := range e.net.TelemetrySnapshots() {
		h = h.Merge(s.Histograms[name])
	}
	return h
}

// dropSlugs are the router's per-reason drop counter suffixes.
var dropSlugs = []string{"decode", "expired", "stale", "blocked", "bad_hvf", "replay", "overuse", "best_effort"}

// drops returns the router drop counters summed over every AS.
func (e *env) drops() map[string]uint64 {
	out := make(map[string]uint64, len(dropSlugs))
	for _, s := range e.net.TelemetrySnapshots() {
		for _, slug := range dropSlugs {
			out[slug] += s.Counters["router.drop."+slug]
		}
	}
	return out
}

// checkNoDrops fails when any border router dropped a packet.
func (e *env) checkNoDrops() error {
	drops := e.drops()
	for _, slug := range dropSlugs {
		if n := drops[slug]; n > 0 {
			return fmt.Errorf("routers dropped %d packets (%s)", n, slug)
		}
	}
	return nil
}

// counterMetrics are the per-layer telemetry counters every traced run
// reports, summed over every AS; a workload that does not reach a layer
// reports its counters as 0.
var counterMetrics = []string{
	"gateway.rejected", "gateway.expired", "router.processed",
	"cserv.ee_setup_fail", "cserv.ee_renew_fail", "cserv.rate_limited",
	"cserv.renew_throttle", "admission.reject",
}

// layerCounters reports the telemetry counters and the router drop
// counters, summed over every AS, and the Network.Tick times since the last
// reset of tickLat.
func (e *env) layerCounters(m map[string]float64) {
	for _, n := range counterMetrics {
		m[n] = float64(e.counterSum(n))
	}
	for slug, n := range e.drops() {
		m["router.drop."+slug] = float64(n)
	}
	m["core.tick_ms.mean"] = mean(e.tickLat) / 1e6
	m["core.tick_ms.p50"] = quantileNs(e.tickLat, 0.5) / 1e6
}

// close releases per-node resources.
func (e *env) close() { e.net.Close() }
