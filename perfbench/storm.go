package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"colibri/internal/core"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// renewal-storm: one source AS keeps a fleet of about 10⁴ EERs alive with
// KeeperFleet's batched (tag-7) renewal waves on the sharded CPlane. Each
// virtual second runs Network.Tick, then fleet.Tick. The same CServ as
// eer-churn, used differently: one message per wave instead of one per EER.
const (
	// stormPerSecond EERs are set up per virtual second for stormSpread
	// seconds, so every second of the 12 s renewal cycle (16 s lifetime,
	// 4 s lead) has the same share of the fleet due.
	stormPerSecond      = 840
	stormShortPerSecond = 100
	stormSpread         = reservationCycle
	reservationCycle    = 16 - keeperLead
	stormKbps           = 30
	stormShards         = 8
)

// countingGateway is the source gateway the keepers install renewed
// versions into, counting the installs.
type countingGateway struct {
	cserv.GatewayInstaller
	installs int64
}

func (g *countingGateway) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error {
	g.installs++
	return g.GatewayInstaller.Install(res, eer, path, auths)
}

type stormBench struct {
	e        *env
	fleet    *cserv.KeeperFleet
	gw       *countingGateway
	pathASes int

	attempted, failed int64
	renewed           int64
	waveLat           []int64
	winOps            []int64
	winDurs           []time.Duration
	// Untraced figures of the last measure call.
	waveMeanNs            float64
	allocsItem, bytesItem float64
	traceItems            []float64 // per traced wave: hop self time per item
	traceBytes            float64
	traceWaves            int64
	traceRenews           int64
}

func newStorm(o opts, tr **tracer) (bench, error) {
	// One CPlane worker (inline waves): with two on a 2-vCPU host the wave
	// p90 followed the host's other load, from 27 to 45 ms between seeds
	// of one set.
	copts := core.Options{CPlaneShards: stormShards, CPlaneWorkers: 1}
	if tr != nil {
		copts.WrapTransport = wrapTiming(tr)
	}
	e, err := newEnv(o.seed, copts)
	if err != nil {
		return nil, err
	}
	b := &stormBench{e: e}
	per := stormPerSecond
	if o.short {
		per = stormShortPerSecond
	}
	if err := b.setup(per); err != nil {
		e.close()
		return nil, err
	}
	return b, nil
}

// setup establishes the fleet towards one destination leaf on a path as
// long as forward's, so that a wave's work does not depend on the path the
// seed draws, per virtual second within the source's control budget.
func (b *stormBench) setup(per int) error {
	e := b.e
	src, dst, err := pickPath(e, fwdPathASes)
	if err != nil {
		return err
	}
	node := e.net.Node(src)
	svc := node.CServ
	b.gw = &countingGateway{GatewayInstaller: node.Gateway}
	b.fleet = cserv.NewKeeperFleet(svc)
	for s := 0; s < stormSpread; s++ {
		for i := 0; i < per; i++ {
			host := uint32(1 + (s*per+i)%64)
			g, err := svc.RequestEER(host, host, dst, stormKbps)
			if err != nil {
				return fmt.Errorf("EER %d: %w", s*per+i, err)
			}
			if g.Res.BwKbps != stormKbps {
				return fmt.Errorf("EER %d granted %d kbps, requested %d", s*per+i, g.Res.BwKbps, stormKbps)
			}
			if err := node.Gateway.Install(g.Res, g.EER, g.Path, g.HopAuths); err != nil {
				return err
			}
			b.fleet.Add(cserv.NewEERKeeper(svc, b.gw, g, keeperLead))
			b.pathASes = len(g.Path)
		}
		if _, err := b.second(nil); err != nil {
			return err
		}
		if err := e.renewSegRs(); err != nil {
			return err
		}
	}
	b.waveLat = b.waveLat[:0]
	return nil
}

// second runs one virtual second: Network.Tick, then one fleet.Tick.
// Every keeper due at that instant must renew.
func (b *stormBench) second(tr *tracer) (int64, error) {
	e := b.e
	e.tick(tr)
	now := e.net.Clock.NowSec()
	due := int64(0)
	for _, k := range b.fleet.Keepers() {
		if k.Demoted() || k.Grant().Res.ExpT <= now+keeperLead {
			due++
		}
	}
	before := b.gw.installs
	if tr != nil {
		tr.newRequest()
		tr.begin(spFleetTick)
	}
	t := time.Now()
	b.fleet.Tick()
	b.waveLat = append(b.waveLat, int64(time.Since(t)))
	if tr != nil {
		tr.end(0)
	}
	renewed := b.gw.installs - before
	b.attempted += due
	b.failed += due - renewed
	b.renewed += renewed
	return renewed, nil
}

// loop runs virtual seconds for d of busy time and returns the renewals,
// the busy time, and the heap objects and bytes allocated.
func (b *stormBench) loop(d time.Duration, tr *tracer) (int64, time.Duration, uint64, uint64, error) {
	b.waveLat, b.e.tickLat = b.waveLat[:0], b.e.tickLat[:0]
	b.winOps, b.winDurs = b.winOps[:0], b.winDurs[:0]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration
	var renewed int64
	for busy < d {
		t0 := time.Now()
		var hopSelf, hopN, hopBytes int64
		if tr != nil {
			a := tr.aggs[spHopBatch]
			hopSelf, hopN, hopBytes = a.self, a.n, a.bytes
		}
		n, err := b.second(tr)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		renewed += n
		took := time.Since(t0)
		busy += took
		b.winOps, b.winDurs = append(b.winOps, n), append(b.winDurs, took)
		if err := b.e.renewSegRs(); err != nil {
			return 0, 0, 0, 0, err
		}
		if tr != nil && n > 0 {
			a := tr.aggs[spHopBatch]
			calls := a.n - hopN
			waves := calls / int64(b.pathASes-1)
			b.traceItems = append(b.traceItems, float64(a.self-hopSelf)/float64(calls)/(float64(n)/float64(waves)))
			b.traceBytes += float64(a.bytes-hopBytes) / float64(b.pathASes-1)
			b.traceWaves += waves
			b.traceRenews += n
		}
	}
	runtime.ReadMemStats(&ms1)
	return renewed, busy, ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, nil
}

func (b *stormBench) measure(d time.Duration) (map[string]float64, error) {
	renewed, busy, allocs, allocBytes, err := b.loop(d, nil)
	if err != nil {
		return nil, err
	}
	b.waveMeanNs = mean(b.waveLat)
	n := float64(max(renewed, 1))
	b.allocsItem, b.bytesItem = float64(allocs)/n, float64(allocBytes)/n
	// One window is one virtual second: its tick and renewal wave.
	return map[string]float64{
		"ops_per_s":         windowRate(b.winOps, b.winDurs),
		"ops_per_s.overall": float64(renewed) / busy.Seconds(),
		"lat_p50_us":        quantileNs(b.waveLat, 0.5) / 1e3,
		"lat_tail_us":       quantileNs(b.waveLat, 0.9) / 1e3,
	}, nil
}

func (b *stormBench) traced(d time.Duration, tr *tracer) (map[string]float64, error) {
	if _, _, _, _, err := b.loop(d, tr); err != nil {
		return nil, err
	}
	root := float64(tr.aggs[spFleetTick].dur)
	layers := float64(tr.aggs[spFleetTick].self + tr.aggs[spHopBatch].self)
	m := map[string]float64{
		"trace.lat_us.mean":                     tr.durMean(spFleetTick) / 1e3,
		"source.self_us.mean":                   tr.selfMean(spFleetTick) / 1e3,
		"source.self_us.p50":                    tr.selfP50(spFleetTick) / 1e3,
		"hop.self_us.mean":                      tr.selfMean(spHopBatch) / 1e3,
		"hop.self_us.p50":                       tr.selfP50(spHopBatch) / 1e3,
		"hop.msg_bytes":                         tr.bytesMean(spHopBatch),
		"cserv.batch.hop_self_ns_per_item.mean": mean(b.traceItems),
		"cserv.batch.hop_self_ns_per_item.p50":  median(b.traceItems),
		"cserv.batch.items_per_wave":            float64(b.traceRenews) / float64(max(b.traceWaves, 1)),
		"cserv.batch.bytes_per_item":            b.traceBytes / float64(max(b.traceRenews, 1)),
		"core.allocs_per_op":                    b.allocsItem,
		"core.alloc_bytes_per_op":               b.bytesItem,
		"core.path_ases":                        float64(b.pathASes),
		"keeper.demoted":                        float64(b.fleet.Demoted()),
		"trace.unattributed_pct":                (1 - layers/root) * 100,
		"trace.overhead_pct":                    (tr.durMean(spFleetTick)/b.waveMeanNs - 1) * 100,
	}
	b.e.layerCounters(m)
	return m, nil
}

func (b *stormBench) counts() (int64, int64) { return b.attempted, b.failed }

// check verifies that no keeper was demoted and that at every AS the EER
// demand charged to each SegR stays within the SegR's active bandwidth.
func (b *stormBench) check() error {
	var errs []error
	if n := b.fleet.Demoted(); n > 0 {
		errs = append(errs, fmt.Errorf("%d keepers demoted", n))
	}
	e := b.e
	for _, owner := range e.topo.SortedIAs() {
		for _, s := range e.net.Node(owner).CServ.Store().InitiatedSegRs() {
			for _, h := range s.Seg.Hops {
				errs = append(errs, chargedWithin(e, h.IA, s))
			}
		}
	}
	return errors.Join(errs...)
}

func (b *stormBench) close() { b.e.close() }

// chargedWithin compares the CPlane's maximum EER demand on a SegR at one
// AS with the SegR's active bandwidth there.
func chargedWithin(e *env, ia topology.IA, s *reservation.SegR) error {
	svc := e.net.Node(ia).CServ
	cp := svc.CPlane()
	if cp == nil {
		return fmt.Errorf("%s runs without a CPlane", ia)
	}
	local, err := svc.Store().GetSegR(s.ID)
	if err != nil {
		return fmt.Errorf("SegR %s missing at %s: %w", s.ID, ia, err)
	}
	if m, ok := cp.SegDemandMax(s.ID); ok && m > local.Active.BwKbps {
		return fmt.Errorf("SegR %s at %s: %d kbps of EER demand over %d kbps", s.ID, ia, m, local.Active.BwKbps)
	}
	return nil
}
