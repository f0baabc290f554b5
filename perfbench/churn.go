package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"colibri/internal/admission"
	"colibri/internal/core"
	"colibri/internal/topology"
)

// eer-churn: random cross-ISD host pairs set up EERs with Host.RequestEER,
// and each session is renewed once with Session.Renew halfway through its
// lifetime. Network.Tick runs every virtual second. It exercises directory
// chain selection, MACs over every hop, admission at every on-path CServ and
// the sealed hop authenticators, with the data plane idle.
const (
	churnSetupsPerSecond      = 200
	churnShortSetupsPerSecond = 40
	churnKbps                 = 1000
	// churnRenewAge is the session age in virtual seconds at its renewal.
	churnRenewAge = 8
)

type churnBench struct {
	e     *env
	hosts []*core.Host
	// due[s % len(due)] holds the sessions to renew at virtual second s.
	due       [][]*core.Session
	perSecond int

	attempted, failed  int64
	setupLat, renewLat []int64
	winOps             []int64
	winDurs            []time.Duration
	// Untraced figures of the last measure call.
	setupMeanNs       float64
	allocsOp, bytesOp float64
}

func newChurn(o opts, tr **tracer) (bench, error) {
	var copts core.Options
	if tr != nil {
		copts.WrapTransport = wrapTiming(tr)
	}
	e, err := newEnv(o.seed, copts)
	if err != nil {
		return nil, err
	}
	b := &churnBench{e: e, perSecond: churnSetupsPerSecond, due: make([][]*core.Session, churnRenewAge+1)}
	if o.short {
		b.perSecond = churnShortSetupsPerSecond
	}
	if err := b.setup(); err != nil {
		e.close()
		return nil, err
	}
	return b, nil
}

// setup attaches hosts, fetches the DRKeys every source AS needs with one
// EER per ordered cross-ISD leaf pair (keys live for a 24 h epoch), lets
// those expire, and fills the renewal pipeline so the timed loop starts in
// its steady mix of setups and renewals.
func (b *churnBench) setup() error {
	e := b.e
	for _, leaf := range e.leaves {
		for a := uint32(1); a <= hostsPerLeaf; a++ {
			h, err := e.net.AddHost(leaf, a)
			if err != nil {
				return err
			}
			b.hosts = append(b.hosts, h)
		}
	}
	for _, src := range e.leaves {
		for _, dst := range e.leaves {
			if src.ISD() == dst.ISD() {
				continue
			}
			if _, err := e.net.Node(src).CServ.RequestEER(1, 1, dst, churnKbps); err != nil {
				return fmt.Errorf("DRKey warm-up %s→%s: %w", src, dst, err)
			}
		}
	}
	if err := e.advance(17); err != nil {
		return err
	}
	for s := 0; s < churnRenewAge; s++ {
		if _, err := b.second(nil); err != nil {
			return err
		}
		if err := e.renewSegRs(); err != nil {
			return err
		}
	}
	b.setupLat, b.renewLat = b.setupLat[:0], b.renewLat[:0]
	return nil
}

// second runs one virtual second: the renewals due now, the new setups,
// then the housekeeping tick. It returns the operations it ran.
func (b *churnBench) second(tr *tracer) (int, error) {
	e := b.e
	slot := int(e.net.Clock.NowSec()) % len(b.due)
	ops := 0
	for _, s := range b.due[slot] {
		if tr != nil {
			tr.newRequest()
			tr.begin(spEERRenew)
		}
		t := time.Now()
		err := s.Renew(churnKbps)
		b.renewLat = append(b.renewLat, int64(time.Since(t)))
		if tr != nil {
			tr.end(0)
		}
		b.attempted++
		ops++
		if err != nil || s.BandwidthKbps() != churnKbps {
			b.failed++
		}
	}
	b.due[slot] = b.due[slot][:0]
	renewSlot := (slot + churnRenewAge) % len(b.due)
	for k := 0; k < b.perSecond; k++ {
		src, dst := b.pair()
		if tr != nil {
			tr.newRequest()
			tr.begin(spDirectory)
			_, _ = e.net.Node(src.IA).CServ.SegRsTo(dst.IA)
			tr.end(0)
			tr.begin(spEERSetup)
		}
		t := time.Now()
		s, err := src.RequestEER(dst, churnKbps)
		b.setupLat = append(b.setupLat, int64(time.Since(t)))
		if tr != nil {
			tr.end(0)
		}
		b.attempted++
		ops++
		if err != nil || s.BandwidthKbps() != churnKbps {
			b.failed++
			continue
		}
		b.due[renewSlot] = append(b.due[renewSlot], s)
	}
	e.tick(tr)
	return ops, nil
}

// pair draws a random cross-ISD host pair.
func (b *churnBench) pair() (src, dst *core.Host) {
	for {
		src = b.hosts[b.e.rng.Intn(len(b.hosts))]
		dst = b.hosts[b.e.rng.Intn(len(b.hosts))]
		if src.IA.ISD() != dst.IA.ISD() {
			return src, dst
		}
	}
}

// loop runs virtual seconds for d of busy time and returns the operations
// run, the busy time, and the heap objects and bytes allocated.
func (b *churnBench) loop(d time.Duration, tr *tracer) (int, time.Duration, uint64, uint64, error) {
	b.setupLat, b.renewLat, b.e.tickLat = b.setupLat[:0], b.renewLat[:0], b.e.tickLat[:0]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration
	b.winOps, b.winDurs = b.winOps[:0], b.winDurs[:0]
	ops := 0
	for busy < d {
		t0 := time.Now()
		n, err := b.second(tr)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ops += n
		took := time.Since(t0)
		busy += took
		b.winOps, b.winDurs = append(b.winOps, int64(n)), append(b.winDurs, took)
		if err := b.e.renewSegRs(); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return ops, busy, ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, nil
}

func (b *churnBench) measure(d time.Duration) (map[string]float64, error) {
	ops, busy, allocs, allocBytes, err := b.loop(d, nil)
	if err != nil {
		return nil, err
	}
	b.setupMeanNs = mean(b.setupLat)
	n := float64(max(ops, 1))
	b.allocsOp, b.bytesOp = float64(allocs)/n, float64(allocBytes)/n
	// One window is one virtual second: its renewals, setups and tick.
	return map[string]float64{
		"ops_per_s":         windowRate(b.winOps, b.winDurs),
		"ops_per_s.overall": float64(ops) / busy.Seconds(),
		"lat_p50_us":        quantileNs(b.setupLat, 0.5) / 1e3,
		"lat_tail_us":       quantileNs(b.setupLat, 0.9) / 1e3,
		"eer.renew_p50_us":  quantileNs(b.renewLat, 0.5) / 1e3,
		"eer.renew_p90_us":  quantileNs(b.renewLat, 0.9) / 1e3,
	}, nil
}

// traced splits the timed call, an EER setup, into the source's self time
// and every hop's self time; renewals, which skip the directory, and the
// directory lookup itself are reported as detail.
func (b *churnBench) traced(d time.Duration, tr *tracer) (map[string]float64, error) {
	if _, _, _, _, err := b.loop(d, tr); err != nil {
		return nil, err
	}
	root := float64(tr.aggs[spEERSetup].dur)
	layers := float64(tr.aggs[spEERSetup].self + tr.aggs[spHopSetup].self)
	m := map[string]float64{
		"trace.lat_us.mean":            tr.durMean(spEERSetup) / 1e3,
		"source.self_us.mean":          tr.selfMean(spEERSetup) / 1e3,
		"source.self_us.p50":           tr.selfP50(spEERSetup) / 1e3,
		"hop.self_us.mean":             tr.selfMean(spHopSetup) / 1e3,
		"hop.self_us.p50":              tr.selfP50(spHopSetup) / 1e3,
		"hop.msg_bytes":                tr.bytesMean(spHopSetup),
		"cserv.directory_us.mean":      tr.selfMean(spDirectory) / 1e3,
		"cserv.directory_us.p50":       tr.selfP50(spDirectory) / 1e3,
		"cserv.src.renew_self_us.mean": tr.selfMean(spEERRenew) / 1e3,
		"cserv.src.renew_self_us.p50":  tr.selfP50(spEERRenew) / 1e3,
		"cserv.hop.renew_self_us.mean": tr.selfMean(spHopRenew) / 1e3,
		"cserv.hop.renew_self_us.p50":  tr.selfP50(spHopRenew) / 1e3,
		"cserv.msg.renew_bytes":        tr.bytesMean(spHopRenew),
		"core.allocs_per_op":           b.allocsOp,
		"core.alloc_bytes_per_op":      b.bytesOp,
		"core.path_ases":               1 + float64(tr.aggs[spHopSetup].n)/float64(tr.aggs[spEERSetup].n),
		"keeper.demoted":               0,
		"trace.unattributed_pct":       (1 - layers/root) * 100,
		"trace.overhead_pct":           (tr.durMean(spEERSetup)/b.setupMeanNs - 1) * 100,
	}
	b.e.layerCounters(m)
	return m, nil
}

func (b *churnBench) counts() (int64, int64) { return b.attempted, b.failed }

// check verifies the global safety invariants after the run: at every AS,
// the SegRs over each egress interface hold at most the interface's EER
// share, and the EERs admitted over each SegR at most its bandwidth.
func (b *churnBench) check() error {
	return b.e.checkAllocations()
}

func (b *churnBench) close() { b.e.close() }

// checkAllocations walks every SegR of the mesh at every AS on its segment
// and sums the SegR bandwidth per egress interface.
func (e *env) checkAllocations() error {
	type port struct {
		ia topology.IA
		eg topology.IfID
	}
	alloc := make(map[port]uint64)
	var errs []error
	for _, owner := range e.topo.SortedIAs() {
		for _, s := range e.net.Node(owner).CServ.Store().InitiatedSegRs() {
			for _, h := range s.Seg.Hops {
				local, err := e.net.Node(h.IA).CServ.Store().GetSegR(s.ID)
				if err != nil {
					errs = append(errs, fmt.Errorf("SegR %s missing at %s: %w", s.ID, h.IA, err))
					continue
				}
				if local.AllocatedEERKbps > local.Active.BwKbps {
					errs = append(errs, fmt.Errorf("SegR %s at %s: %d kbps of EERs over %d kbps", s.ID, h.IA, local.AllocatedEERKbps, local.Active.BwKbps))
				}
				if h.Eg != 0 {
					alloc[port{h.IA, h.Eg}] += local.Active.BwKbps
				}
			}
		}
	}
	for p, kbps := range alloc {
		share := admission.DefaultSplit.EERShare(e.topo.AS(p.ia).Interface(p.eg).CapacityKbps())
		if kbps > share {
			errs = append(errs, fmt.Errorf("%s egress %d: %d kbps allocated over a %d kbps EER share", p.ia, p.eg, kbps, share))
		}
	}
	return errors.Join(errs...)
}
