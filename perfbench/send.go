package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"colibri/internal/core"
	"colibri/internal/gateway"
	"colibri/internal/packet"
	"colibri/internal/router"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// send: a few hundred sessions between random cross-ISD leaf hosts, each
// sending a 64 B payload through Session.Send, round-robin. The smallest
// packet, where per-packet cost dominates; the control plane only renews
// sessions between timed rounds.
const (
	sendSessions      = 256
	sendShortSessions = 32
	hostsPerLeaf      = 4
	sendPayload       = 64
	sendKbps          = 1000
	// sendRoundNs is the virtual time one round of sends spans: every
	// session sends one packet per round, which keeps each at well under
	// its rate (a 64 B payload over 8 hops is 176 B, and 1 Mbps allows
	// 250 B per 2 ms).
	sendRoundNs = 2e6
	// sessionLead renews sessions this many seconds before expiry.
	sessionLead = 4
	// payloadPool is the number of distinct payloads.
	payloadPool = 4096
)

type sendBench struct {
	e        *env
	hosts    []*core.Host
	sessions []*core.Session
	dst      []int // host index of each session's destination
	payloads [][]byte
	// expect[h] lists the payload indices host h must have received since
	// the last drain, in send order.
	expect [][]int32
	seq    int
	stepNs int64
	// nextMaint is the virtual time of the next between-rounds maintenance.
	nextMaint int64

	attempted, failed int64
	lost, corrupt     int64
	lat               []int64
	// Untraced figures of the last measure call.
	sendMeanNs          float64
	allocsPkt, bytesPkt float64
	// Traced data path: the public calls Session.Send makes, per AS.
	gw    map[topology.IA]*gateway.Worker
	rw    map[topology.IA]*router.Worker
	fault bool
}

func newSend(o opts, _ **tracer) (bench, error) {
	e, err := newEnv(o.seed, core.Options{})
	if err != nil {
		return nil, err
	}
	b := &sendBench{e: e, fault: o.fault}
	for _, leaf := range e.leaves {
		for a := uint32(1); a <= hostsPerLeaf; a++ {
			h, err := e.net.AddHost(leaf, a)
			if err != nil {
				e.close()
				return nil, err
			}
			b.hosts = append(b.hosts, h)
		}
	}
	n := sendSessions
	if o.short {
		n = sendShortSessions
	}
	for len(b.sessions) < n {
		si, di := e.rng.Intn(len(b.hosts)), e.rng.Intn(len(b.hosts))
		src, dst := b.hosts[si], b.hosts[di]
		if src.IA.ISD() == dst.IA.ISD() {
			continue
		}
		s, err := src.RequestEER(dst, sendKbps)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("session %d: %w", len(b.sessions), err)
		}
		if s.BandwidthKbps() != sendKbps {
			e.close()
			return nil, fmt.Errorf("session %d granted %d kbps, requested %d", len(b.sessions), s.BandwidthKbps(), sendKbps)
		}
		b.sessions = append(b.sessions, s)
		b.dst = append(b.dst, di)
	}
	b.payloads = make([][]byte, payloadPool)
	for i := range b.payloads {
		b.payloads[i] = make([]byte, sendPayload)
		e.rng.Read(b.payloads[i])
	}
	b.expect = make([][]int32, len(b.hosts))
	b.stepNs = sendRoundNs / int64(len(b.sessions))
	b.nextMaint = e.net.Clock.NowNs() + 1e9
	b.gw = map[topology.IA]*gateway.Worker{}
	b.rw = map[topology.IA]*router.Worker{}
	for _, ia := range e.topo.SortedIAs() {
		node := e.net.Node(ia)
		b.gw[ia] = node.Gateway.NewWorker()
		b.rw[ia] = node.Router.NewWorker()
	}
	return b, nil
}

// next picks the payload of the next send.
func (b *sendBench) next() (int32, []byte) {
	i := int32(b.seq % payloadPool)
	b.seq += 7
	return i, b.payloads[i]
}

// maintain runs between rounds once per virtual second: it drains and
// verifies every inbox, runs the network's housekeeping and the SegR
// keep-alive, and renews sessions that are about to expire.
func (b *sendBench) maintain(tr *tracer) error {
	b.verifyInboxes()
	b.e.runTick(tr)
	if err := b.e.renewSegRs(); err != nil {
		return err
	}
	for _, s := range b.sessions {
		renewed, err := s.EnsureFresh(sessionLead)
		if renewed || err != nil {
			b.attempted++
		}
		if err != nil {
			b.failed++
		}
	}
	b.nextMaint += 1e9
	return nil
}

// verifyInboxes compares every host's inbox with the payloads sent to it.
func (b *sendBench) verifyInboxes() {
	for hi, h := range b.hosts {
		want := b.expect[hi]
		got := h.Inbox
		for i, p := range want {
			if i >= len(got) {
				b.lost += int64(len(want) - i)
				break
			}
			if !bytes.Equal(got[i], b.payloads[p]) {
				b.corrupt++
			}
		}
		if len(got) > len(want) {
			b.corrupt += int64(len(got) - len(want))
		}
		h.Inbox = h.Inbox[:0]
		b.expect[hi] = want[:0]
	}
}

func (b *sendBench) measure(d time.Duration) (map[string]float64, error) {
	clock := b.e.net.Clock
	lat := b.lat[:0]
	var busy time.Duration
	var winOps []int64
	var winDurs []time.Duration
	var ms0, ms1 runtime.MemStats
	var allocs, allocBytes uint64
	runtime.ReadMemStats(&ms0)
	for busy < d {
		t0 := time.Now()
		for i, s := range b.sessions {
			clock.Advance(b.stepNs)
			pi, p := b.next()
			ts := time.Now()
			var err error
			if b.fault {
				err = b.sendCorrupted(i, p)
				b.fault = false
			} else {
				err = s.Send(p)
			}
			lat = append(lat, int64(time.Since(ts)))
			b.attempted++
			if err != nil {
				b.failed++
			}
			b.expect[b.dst[i]] = append(b.expect[b.dst[i]], pi)
		}
		round := time.Since(t0)
		busy += round
		winOps, winDurs = append(winOps, int64(len(b.sessions))), append(winDurs, round)
		if clock.NowNs() >= b.nextMaint {
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			if err := b.maintain(nil); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms0)
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs += ms1.Mallocs - ms0.Mallocs
	allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	b.lat = lat
	n := float64(len(lat))
	b.sendMeanNs = mean(lat)
	b.allocsPkt, b.bytesPkt = float64(allocs)/n, float64(allocBytes)/n
	// One window is one round of sends over every session.
	return map[string]float64{
		"ops_per_s":         windowRate(winOps, winDurs),
		"lat_p50_us":        quantileNs(lat, 0.50) / 1e3,
		"lat_tail_us":       quantileNs(lat, 0.90) / 1e3,
		"ops_per_s.overall": n / busy.Seconds(),
		"send.p99_us":       quantileNs(lat, 0.99) / 1e3,
	}, nil
}

// sendCorrupted sends one payload the way Session.Send does, but flips one
// byte of the last hop validation field before the packet enters the
// network. The output checks must catch it.
func (b *sendBench) sendCorrupted(i int, p []byte) error {
	g := b.sessions[i].Grant()
	src := g.Res.SrcAS
	buf := make([]byte, packet.DataLen(len(g.Path), len(p)))
	n, err := b.gw[src].Build(g.Res.ResID, p, buf, b.e.net.Clock.NowNs())
	if err != nil {
		return err
	}
	buf[n-len(p)-1] ^= 0x01
	return b.e.net.InjectPacket(buf[:n], src)
}

// traced sends the same packets through the public calls Session.Send
// makes — Gateway Worker.Build, then Router Worker.Process at each AS along
// Verdict.Egress until ADeliver — and times each call.
func (b *sendBench) traced(d time.Duration, tr *tracer) (map[string]float64, error) {
	clock := b.e.net.Clock
	phases := []string{"gateway.lookup_ns", "gateway.tokenbucket_ns", "gateway.hvf_ns"}
	before := make([]telemetry.HistSnapshot, len(phases))
	for i, name := range phases {
		before[i] = b.e.histSum(name)
	}
	var pkt packet.Packet
	var busy time.Duration
	b.e.tickLat = b.e.tickLat[:0]
	for busy < d {
		t0 := time.Now()
		for _, s := range b.sessions {
			clock.Advance(b.stepNs)
			_, p := b.next()
			b.attempted++
			if err := b.walk(tr, s, p, &pkt); err != nil {
				b.failed++
			}
		}
		busy += time.Since(t0)
		if clock.NowNs() >= b.nextMaint {
			if err := b.maintain(tr); err != nil {
				return nil, err
			}
		}
	}
	routers := []spanName{spRouterFirst, spRouterTransit, spRouterLast}
	m := map[string]float64{}
	for i, name := range phases {
		h := b.e.histSum(name).Sub(before[i])
		m[name+".mean"] = h.Mean()
		m[name+".p50"] = h.Quantile(0.5)
	}
	for i, l := range []string{"router.first_ns", "router.transit_ns", "router.last_ns"} {
		m[l+".mean"] = tr.selfMean(routers[i])
		m[l+".p50"] = tr.selfP50(routers[i])
	}
	pkts := float64(tr.aggs[spSend].n)
	layerSum := float64(tr.aggs[spGwBuild].self) / pkts
	for _, r := range routers {
		layerSum += float64(tr.aggs[r].self) / pkts
	}
	root := tr.durMean(spSend)
	m["core.send.self_ns"] = b.sendMeanNs - layerSum
	m["trace.lat_us.mean"] = root / 1e3
	m["source.self_us.mean"] = tr.selfMean(spGwBuild) / 1e3
	m["source.self_us.p50"] = tr.selfP50(spGwBuild) / 1e3
	m["hop.self_us.mean"] = tr.selfMeanOf(routers...) / 1e3
	m["hop.self_us.p50"] = tr.selfP50Of(routers...) / 1e3
	m["hop.msg_bytes"] = tr.bytesMean(spGwBuild)
	m["core.allocs_per_op"] = b.allocsPkt
	m["core.alloc_bytes_per_op"] = b.bytesPkt
	m["core.path_ases"] = b.pathASes()
	m["trace.overhead_pct"] = (root/b.sendMeanNs - 1) * 100
	m["trace.unattributed_pct"] = (1 - layerSum/root) * 100
	m["keeper.demoted"] = 0
	b.e.layerCounters(m)
	return m, nil
}

// walk sends one payload on s through the traced data path.
func (b *sendBench) walk(tr *tracer, s *core.Session, p []byte, pkt *packet.Packet) error {
	g := s.Grant()
	src := g.Res.SrcAS
	now := b.e.net.Clock.NowNs()
	tr.newRequest()
	tr.begin(spSend)
	defer tr.end(0)
	buf := make([]byte, 64+len(g.Path)*8+len(p)+64)
	tr.begin(spGwBuild)
	n, err := b.gw[src].Build(g.Res.ResID, p, buf, now)
	tr.end(n)
	if err != nil {
		return err
	}
	cur, last := src, len(g.Path)-1
	for hop := 0; hop <= last; hop++ {
		name := spRouterTransit
		switch hop {
		case 0:
			name = spRouterFirst
		case last:
			name = spRouterLast
		}
		tr.begin(name)
		v, err := b.rw[cur].Process(buf[:n], now)
		tr.end(0)
		if err != nil {
			return err
		}
		switch v.Action {
		case router.AForward:
			cur = b.e.topo.AS(cur).Interface(v.Egress).Neighbor
		case router.ADeliver:
			if _, err := pkt.DecodeFromBytes(buf[:n]); err != nil || !bytes.Equal(pkt.Payload, p) {
				b.corrupt++
			}
			return nil
		default:
			return fmt.Errorf("unexpected verdict %v at %s", v.Action, cur)
		}
	}
	return errors.New("path ended before delivery")
}

// pathASes is the mean number of ASes on the sessions' paths.
func (b *sendBench) pathASes() float64 {
	var n int
	for _, s := range b.sessions {
		n += s.PathLen()
	}
	return float64(n) / float64(len(b.sessions))
}

func (b *sendBench) counts() (int64, int64) { return b.attempted, b.failed }

// check verifies that every payload arrived byte-identical at its
// destination host and that no border router dropped a packet.
func (b *sendBench) check() error {
	b.verifyInboxes()
	var errs []error
	if b.lost > 0 || b.corrupt > 0 {
		errs = append(errs, fmt.Errorf("%d payloads lost, %d corrupted or unexpected", b.lost, b.corrupt))
	}
	errs = append(errs, b.e.checkNoDrops())
	return errors.Join(errs...)
}

func (b *sendBench) close() { b.e.close() }
