package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"colibri/internal/core"
	"colibri/internal/cserv"
	"colibri/internal/gateway"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/router"
	"colibri/internal/topology"
)

// forward: one source leaf holds tens of thousands of reservations on one
// 6-AS path, installed in a sharded gateway with one sharded router per
// on-path AS. Bursts of 32 packets go to random reservations with a fixed
// 7:4:1 mix of 64/576/1400 B payloads. The only workload on the burst path,
// RSS sharding and the shard pool; its working set overflows the caches.
const (
	fwdReservations      = 12000
	fwdShortReservations = 1500
	fwdKbps              = 300
	fwdBurst             = 32
	fwdPathASes          = 6
	// fwdSetupsPerSecond keeps the source AS under the default control
	// budget of 1000 requests per virtual second, with room for the keeper
	// fleet's renewal waves.
	fwdSetupsPerSecond = 900
	// fwdPacing keeps each reservation at an eighth of its rate for the
	// largest packet. 12k flows share the default OFD sketch's counters:
	// at full rate it flags nearly all of them within seconds, and at a
	// quarter of the rate it still flags a few every second, so a run
	// slows as they move under deterministic monitoring one by one (from
	// 104k to 61k packets/s over 48 s on a 2-vCPU host). At an eighth the
	// rate stays flat over minutes.
	fwdPacing = 8
	// fwdShards is the RSS shard count of the gateway and every router.
	// Their shard pools run inline, with one worker: with two on a 2-vCPU
	// host the burst figures followed the host's other load (throughput
	// 73k–107k packets/s between seeds of one set, against a steadier and
	// faster ~111k inline).
	fwdShards = 2
	// fwdRateWindow is the number of bursts (about 10 ms) in one window
	// of the throughput median.
	fwdRateWindow = 32
	// keeperLead renews EERs this many seconds before they expire.
	keeperLead = 4
)

// fwdSizes are the payload sizes and fwdMix their 7:4:1 proportions.
var (
	fwdSizes = [3]int{64, 576, 1400}
	fwdMix   = [12]uint8{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2}
)

type forwardBench struct {
	e       *env
	fleet   *cserv.KeeperFleet
	gw      *gateway.Sharded
	routers []*router.Sharded
	egress  []topology.IfID // expected egress at each on-path AS
	resIDs  []uint32
	perm    []int
	permPos int
	sizes   []uint8
	sizePos int
	payload [3][]byte
	burstNs int64
	// nextMaint is the virtual time of the next between-bursts maintenance.
	nextMaint int64

	winOps   []int64
	winDurs  []time.Duration
	reqs     []gateway.BuildReq
	outs     []gateway.BuildRes
	bufs     [][]byte
	pkts     [][]byte
	verdicts []router.BatchVerdict
	lat      []int64

	attempted, failed int64
	// Untraced figures of the last measure call.
	burstMeanNs         float64
	allocsPkt, bytesPkt float64
	fault               bool
}

func newForward(o opts, tr **tracer) (bench, error) {
	var copts core.Options
	if tr != nil {
		copts.WrapTransport = wrapTiming(tr)
	}
	e, err := newEnv(o.seed, copts)
	if err != nil {
		return nil, err
	}
	b := &forwardBench{e: e, fault: o.fault}
	if err := b.setup(o); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *forwardBench) setup(o opts) error {
	e := b.e
	n := fwdReservations
	if o.short {
		n = fwdShortReservations
	}
	src, dst, err := pickPath(e, fwdPathASes)
	if err != nil {
		return err
	}
	node := e.net.Node(src)
	svc := node.CServ
	b.gw = gateway.NewSharded(src, gateway.Options{}, fwdShards, 1)
	b.gw.EnableTelemetry(node.Telemetry)
	b.fleet = cserv.NewKeeperFleet(svc)
	b.nextMaint = e.net.Clock.NowNs() + 1e9
	var path []cserv.PathHop
	for i := 0; i < n; i++ {
		if i > 0 && i%fwdSetupsPerSecond == 0 {
			e.net.Clock.Advance(b.nextMaint - e.net.Clock.NowNs())
			if err := b.maintain(nil); err != nil {
				return err
			}
		}
		host := uint32(1 + i%16)
		g, err := svc.RequestEER(host, host, dst, fwdKbps)
		if err != nil {
			return fmt.Errorf("reservation %d: %w", i, err)
		}
		if g.Res.BwKbps != fwdKbps {
			return fmt.Errorf("reservation %d granted %d kbps, requested %d", i, g.Res.BwKbps, fwdKbps)
		}
		if path == nil {
			path = g.PathHops
		}
		if !samePath(path, g.PathHops) {
			return fmt.Errorf("reservation %d left the %d-AS path", i, len(path))
		}
		if err := b.gw.Install(g.Res, g.EER, g.Path, g.HopAuths); err != nil {
			return err
		}
		b.fleet.Add(cserv.NewEERKeeper(svc, b.gw, g, keeperLead))
		b.resIDs = append(b.resIDs, g.Res.ResID)
	}
	for _, h := range path {
		hn := e.net.Node(h.IA)
		b.routers = append(b.routers, router.NewSharded(router.ShardedConfig{
			Router:  router.Config{IA: h.IA, Secret: hn.CServ.Secret(), Telemetry: hn.Telemetry},
			Replay:  &replay.Config{},
			OFD:     &ofd.Config{},
			Shards:  fwdShards,
			Workers: 1,
		}))
		b.egress = append(b.egress, h.Eg)
	}
	// Pace the virtual clock so every reservation stays under its rate:
	// each reservation gets one packet per round of all reservations, and
	// a round lasts fwdPacing times what the largest packet needs.
	maxPkt := packet.DataLen(len(path), fwdSizes[2])
	roundNs := int64(float64(maxPkt) * 8 / (fwdKbps * 1e3) * fwdPacing * 1e9)
	b.burstNs = roundNs * fwdBurst / int64(len(b.resIDs))
	b.perm = e.rng.Perm(len(b.resIDs))
	b.sizes = make([]uint8, 12*1024)
	for i := 0; i < len(b.sizes); i += 12 {
		copy(b.sizes[i:], fwdMix[:])
		e.rng.Shuffle(12, func(x, y int) { b.sizes[i+x], b.sizes[i+y] = b.sizes[i+y], b.sizes[i+x] })
	}
	for i, sz := range fwdSizes {
		b.payload[i] = make([]byte, sz)
		e.rng.Read(b.payload[i])
	}
	b.reqs = make([]gateway.BuildReq, fwdBurst)
	b.outs = make([]gateway.BuildRes, fwdBurst)
	b.bufs = make([][]byte, fwdBurst)
	for i := range b.bufs {
		b.bufs[i] = make([]byte, maxPkt)
	}
	b.pkts = make([][]byte, 0, fwdBurst)
	b.verdicts = make([]router.BatchVerdict, fwdBurst)
	return nil
}

// pickPath draws cross-ISD leaf pairs until the first SegR chain the
// source's directory offers crosses exactly ases ASes.
func pickPath(e *env, ases int) (src, dst topology.IA, err error) {
	for try := 0; try < 1000; try++ {
		src, dst = e.crossISDPair()
		chains, err := e.net.Node(src).CServ.SegRsTo(dst)
		if err != nil {
			continue
		}
		n := 1
		for _, off := range chains[0] {
			n += off.Seg.Len() - 1
		}
		if n == ases {
			return src, dst, nil
		}
	}
	return 0, 0, fmt.Errorf("no leaf pair with a %d-AS path", ases)
}

// totalLen is the number of bytes in pkts.
func totalLen(pkts [][]byte) int {
	n := 0
	for _, p := range pkts {
		n += len(p)
	}
	return n
}

func samePath(a, b []cserv.PathHop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maintain runs once per virtual second between bursts: housekeeping, the
// SegR keep-alive, and the keeper fleet's batched EER renewals, whose new
// versions it installs in the sharded gateway.
func (b *forwardBench) maintain(tr *tracer) error {
	e := b.e
	e.runTick(tr)
	if err := e.renewSegRs(); err != nil {
		return err
	}
	now := e.net.Clock.NowSec()
	for _, k := range b.fleet.Keepers() {
		if k.Grant().Res.ExpT <= now+keeperLead {
			b.attempted++
		}
	}
	b.failed += int64(b.fleet.Tick())
	b.gw.Expire(now)
	b.nextMaint += 1e9
	return nil
}

// fill prepares the next burst: the next 32 reservations of a random
// permutation, with payload sizes from the fixed mix.
func (b *forwardBench) fill(overRate bool) {
	for j := range b.reqs {
		if b.permPos == len(b.perm) {
			b.e.rng.Shuffle(len(b.perm), func(x, y int) { b.perm[x], b.perm[y] = b.perm[y], b.perm[x] })
			b.permPos = 0
		}
		res := b.resIDs[b.perm[b.permPos]]
		b.permPos++
		size := b.sizes[b.sizePos]
		b.sizePos = (b.sizePos + 1) % len(b.sizes)
		if overRate {
			// Every packet of the burst on one reservation, at full size.
			res, size = b.resIDs[0], 2
		}
		b.reqs[j] = gateway.BuildReq{ResID: res, Payload: b.payload[size], Out: b.bufs[j]}
	}
}

// burst builds one burst and walks it through every on-path router,
// counting each packet that is refused, dropped or misrouted as failed. It
// returns the number delivered at the last hop.
func (b *forwardBench) burst(tr *tracer) int {
	now := b.e.net.Clock.NowNs()
	if tr != nil {
		tr.begin(spGwBurst)
	}
	b.gw.BuildBatch(b.reqs, b.outs, now)
	if tr != nil {
		tr.end(0)
	}
	pkts := b.pkts[:0]
	for j, out := range b.outs {
		if out.Err != nil {
			b.failed++
			continue
		}
		pkts = append(pkts, b.bufs[j][:out.N])
	}
	last := len(b.routers) - 1
	for h, r := range b.routers {
		if tr != nil {
			tr.begin(spRouterBurst)
		}
		r.ProcessBatch(pkts, b.verdicts, now)
		if tr != nil {
			tr.end(totalLen(pkts))
		}
		want := router.AForward
		if h == last {
			want = router.ADeliver
		}
		kept := pkts[:0]
		for j, v := range b.verdicts[:len(pkts)] {
			if v.Err != nil || v.Action != want || (want == router.AForward && v.Egress != b.egress[h]) {
				b.failed++
				continue
			}
			kept = append(kept, pkts[j])
		}
		pkts = kept
	}
	return len(pkts)
}

// loop runs bursts for d of busy time, pausing for maintenance once per
// virtual second, and returns the packets delivered and the busy time. It
// adds the bursts' heap allocations (not maintenance's) to allocs and
// allocBytes, and records the packets delivered per window of
// fwdRateWindow bursts in winOps and winDurs.
func (b *forwardBench) loop(d time.Duration, tr *tracer, allocs, allocBytes *uint64) (int, time.Duration, error) {
	clock := b.e.net.Clock
	var busy, win time.Duration
	b.winOps, b.winDurs = b.winOps[:0], b.winDurs[:0]
	winPkts, winBursts := 0, 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	delivered := 0
	for busy < d {
		t0 := time.Now()
		b.fill(b.fault)
		b.fault = false
		tb := time.Now()
		if tr != nil {
			tr.newRequest()
			tr.begin(spFwdBurst)
		}
		n := b.burst(tr)
		if tr != nil {
			tr.end(0)
		}
		b.lat = append(b.lat, int64(time.Since(tb)))
		b.attempted += fwdBurst
		clock.Advance(b.burstNs)
		took := time.Since(t0)
		busy += took
		delivered += n
		win += took
		winPkts += n
		if winBursts++; winBursts == fwdRateWindow {
			b.winOps, b.winDurs = append(b.winOps, int64(winPkts)), append(b.winDurs, win)
			win, winPkts, winBursts = 0, 0, 0
		}
		if clock.NowNs() >= b.nextMaint {
			runtime.ReadMemStats(&ms1)
			*allocs += ms1.Mallocs - ms0.Mallocs
			*allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			if err := b.maintain(tr); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&ms0)
		}
	}
	runtime.ReadMemStats(&ms1)
	*allocs += ms1.Mallocs - ms0.Mallocs
	*allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	return delivered, busy, nil
}

func (b *forwardBench) measure(d time.Duration) (map[string]float64, error) {
	b.lat = b.lat[:0]
	var allocs, allocBytes uint64
	delivered, busy, err := b.loop(d, nil, &allocs, &allocBytes)
	if err != nil {
		return nil, err
	}
	b.burstMeanNs = mean(b.lat)
	pkts := float64(max(delivered, 1))
	b.allocsPkt, b.bytesPkt = float64(allocs)/pkts, float64(allocBytes)/pkts
	// Each of the 12 replay filters on the path (6 ASes, 2 shards each)
	// clears its bits once per 200 ms window of virtual time, inline, and
	// a burst advances the clock by about 0.85 ms, so about 5% of bursts
	// include a clear. p95 and p99 sit on or above that knee and swing
	// with the host's memory bandwidth (p99 from 0.5 to 2.5 ms between
	// runs of one seed); p90 stays below it. The higher ones are detail.
	return map[string]float64{
		"ops_per_s":         windowRate(b.winOps, b.winDurs),
		"ops_per_s.overall": float64(delivered) / busy.Seconds(),
		"lat_p50_us":        quantileNs(b.lat, 0.50) / 1e3,
		"lat_tail_us":       quantileNs(b.lat, 0.90) / 1e3,
		"fwd.burst_p95_us":  quantileNs(b.lat, 0.95) / 1e3,
		"fwd.burst_p99_us":  quantileNs(b.lat, 0.99) / 1e3,
	}, nil
}

func (b *forwardBench) traced(d time.Duration, tr *tracer) (map[string]float64, error) {
	var allocs, allocBytes uint64
	b.e.tickLat = b.e.tickLat[:0]
	if _, _, err := b.loop(d, tr, &allocs, &allocBytes); err != nil {
		return nil, err
	}
	root := tr.durMean(spFwdBurst)
	layerSum := (float64(tr.aggs[spGwBurst].self) + float64(tr.aggs[spRouterBurst].self)) / float64(tr.aggs[spFwdBurst].n)
	m := map[string]float64{
		"trace.lat_us.mean":                root / 1e3,
		"source.self_us.mean":              tr.selfMean(spGwBurst) / 1e3,
		"source.self_us.p50":               tr.selfP50(spGwBurst) / 1e3,
		"hop.self_us.mean":                 tr.selfMean(spRouterBurst) / 1e3,
		"hop.self_us.p50":                  tr.selfP50(spRouterBurst) / 1e3,
		"hop.msg_bytes":                    tr.bytesMean(spRouterBurst),
		"gateway.burst_ns_per_pkt.mean":    tr.selfMean(spGwBurst) / fwdBurst,
		"gateway.burst_ns_per_pkt.p50":     tr.selfP50(spGwBurst) / fwdBurst,
		"router.burst_ns_per_pkt_hop.mean": tr.selfMean(spRouterBurst) / fwdBurst,
		"router.burst_ns_per_pkt_hop.p50":  tr.selfP50(spRouterBurst) / fwdBurst,
		"core.allocs_per_op":               b.allocsPkt,
		"core.alloc_bytes_per_op":          b.bytesPkt,
		"core.path_ases":                   float64(len(b.routers)),
		"keeper.demoted":                   float64(b.fleet.Demoted()),
		"trace.overhead_pct":               (root/b.burstMeanNs - 1) * 100,
		"trace.unattributed_pct":           (1 - layerSum/root) * 100,
	}
	b.e.layerCounters(m)
	return m, nil
}

func (b *forwardBench) counts() (int64, int64) { return b.attempted, b.failed }

// check verifies that no router dropped a packet and no keeper demoted its
// flow; refused or undelivered packets are already counted as failed.
func (b *forwardBench) check() error {
	var errs []error
	errs = append(errs, b.e.checkNoDrops())
	if n := b.fleet.Demoted(); n > 0 {
		errs = append(errs, fmt.Errorf("%d reservations demoted", n))
	}
	return errors.Join(errs...)
}

func (b *forwardBench) close() {
	if b.gw != nil {
		b.gw.Close()
	}
	for _, r := range b.routers {
		r.Close()
	}
	b.e.close()
}
