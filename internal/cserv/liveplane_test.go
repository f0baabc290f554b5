package cserv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// cpFabric builds a TwoISD fabric whose CServs run on a sharded CPlane.
func cpFabric(t testing.TB, shards int, mutate func(ia topology.IA, cfg *Config)) *fabric {
	return twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		cfg.CPlaneShards = shards
		if mutate != nil {
			mutate(iaKey, cfg)
		}
	})
}

// TestCPlaneLiveDifferential replays one operation sequence — EER setups up
// to oversubscription, then constant-bandwidth renewal waves — against the
// live CPlane-backed fabric and against storeOracle, an independent model
// of per-hop admission over plain per-SegR counters, and demands identical
// per-operation decisions: same grants, same refusals. The model charges
// the max over versions (a same-bandwidth renewal has delta zero) and the
// CPlane replaces the version, so the two must agree on this sequence
// exactly.
func TestCPlaneLiveDifferential(t *testing.T) {
	f := cpFabric(t, 1, nil)
	up, core, down := f.setupAllSegRs(t, 50_000)
	oracle := newStoreOracle(f, up, core, down)
	src := f.services[ia(1, 11)]

	type outcome struct {
		ok bool
		bw uint64
	}
	var live, model []outcome
	// Ten 8 Mbps setups against 50 Mbps SegRs: six fit, four are refused.
	var grants []*EERGrant
	var flows []int
	var vers []reservation.Version
	for i := uint32(0); i < 10; i++ {
		g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
		live = append(live, outcome{err == nil, grantBw(g)})
		if err == nil {
			grants = append(grants, g)
		}
		v := reservation.Version{Ver: 1, BwKbps: 8_000, ExpT: f.now() + reservation.EERLifetimeSeconds}
		bw, ok := oracle.request(int(i), v, false)
		model = append(model, outcome{ok, bw})
		if ok {
			v.BwKbps = bw
			flows, vers = append(flows, int(i)), append(vers, v)
		}
	}
	// Three keep-alive waves at the same bandwidth, one second apart (the
	// per-EER renewal throttle allows one per second).
	for wave := uint32(1); wave <= 3; wave++ {
		f.clock.Store(t0 + wave)
		for i, g := range grants {
			ng, err := src.RenewEER(g, uint64(g.Res.BwKbps))
			live = append(live, outcome{err == nil, grantBw(ng)})
			if err == nil {
				grants[i] = ng
			}
		}
		for i, flow := range flows {
			v := reservation.Version{Ver: vers[i].Ver + 1, BwKbps: vers[i].BwKbps, ExpT: f.now() + reservation.EERLifetimeSeconds}
			bw, ok := oracle.request(flow, v, true)
			model = append(model, outcome{ok, bw})
			if ok {
				v.BwKbps = bw
				vers[i] = v
			}
		}
	}

	if len(live) != len(model) {
		t.Fatalf("operation counts diverge: live %d, model %d", len(live), len(model))
	}
	for i := range live {
		if live[i] != model[i] {
			t.Errorf("op %d: live %+v, model %+v", i, live[i], model[i])
		}
	}
	// The workload must have exercised all three decision kinds: full grants
	// (the six fitting setups, and renewals — the transfer split credits the
	// replaced version's charge, so a keep-alive at the same bandwidth always
	// fits), refusals (the four oversubscribed setups), and partial renewal
	// grants: the first renewal wave lands while the split still carries the
	// whole wave's pre-renewal demand, so its first renewal is fair-share
	// capped to the remaining 2 Mbps (§4.2) and that flow keeps renewing at
	// the shrunk bandwidth in the later waves — 3 partials in 24 admissions.
	admitted, partial := 0, 0
	for _, o := range live {
		if o.ok {
			admitted++
		}
		if o.ok && o.bw != 0 && o.bw != 8_000 {
			partial++
		}
	}
	if admitted != 24 || partial != 3 {
		t.Errorf("admitted %d of %d operations (%d partial), want 24 (3 partial)", admitted, len(live), partial)
	}
}

func grantBw(g *EERGrant) uint64 {
	if g == nil {
		return 0
	}
	return uint64(g.Res.BwKbps)
}

// TestCPlaneLiveNoOverAdmission drives a multi-shard CPlane fabric into
// oversubscription and checks the aggregate invariant: at every AS, the
// maximum EER demand charged to a SegR never exceeds the SegR's own active
// bandwidth, even though the capacity is split across shards.
func TestCPlaneLiveNoOverAdmission(t *testing.T) {
	f := cpFabric(t, 4, nil)
	up, core, down := f.setupAllSegRs(t, 50_000)
	src := f.services[ia(1, 11)]
	admitted := 0
	for i := uint32(0); i < 40; i++ {
		if _, err := src.RequestEER(100+i, 200+i, ia(2, 11), 3_000); err == nil {
			admitted++
		}
	}
	if admitted == 0 || admitted > 16 {
		t.Fatalf("admitted %d 3 Mbps EERs against 50 Mbps SegRs", admitted)
	}
	for _, iaKey := range f.topo.SortedIAs() {
		svc := f.services[iaKey]
		for _, segr := range []*reservation.SegR{up, core, down} {
			m, ok := svc.CPlane().SegDemandMax(segr.ID)
			if !ok {
				continue // this AS is not on that SegR's path
			}
			if m > segr.Active.BwKbps {
				t.Errorf("AS %s over-admitted SegR %s: demand %d > active %d",
					iaKey, segr.ID, m, segr.Active.BwKbps)
			}
		}
	}
}

// TestAllocatedEERKbpsMirrorsCPlane checks that the store's read-only
// AllocatedEERKbps view equals the CPlane's SegDemandMax at every on-path
// AS after each kind of EER operation: a setup, a backward-pass adjust, a
// renewal, a rollback after a downstream refusal, and an expiry Tick.
func TestAllocatedEERKbpsMirrorsCPlane(t *testing.T) {
	f := cpFabric(t, 1, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(2, 11) {
			cfg.DstApprove = func(req *EESetupReq) bool { return req.DstHost != 99 }
		}
	})
	// The down SegR is the bottleneck, so a renewal beyond its free
	// bandwidth is shrunk at the last hops and adjusted upstream.
	var segrs []*reservation.SegR
	for _, sp := range []struct {
		owner topology.IA
		seg   *segment.Segment
		kbps  uint64
	}{
		{ia(1, 11), f.reg.UpSegments(ia(1, 11))[0], 50_000},
		{ia(1, 1), f.reg.CoreSegments(ia(1, 1), ia(2, 1))[0], 50_000},
		{ia(2, 1), f.reg.DownSegments(ia(2, 11))[0], 20_000},
	} {
		sr, err := f.services[sp.owner].SetupSegment(sp.seg, 0, sp.kbps)
		if err != nil {
			t.Fatal(err)
		}
		segrs = append(segrs, sr)
	}
	check := func(step string, wantUp uint64) {
		t.Helper()
		for _, iaKey := range f.topo.SortedIAs() {
			svc := f.services[iaKey]
			for _, sr := range segrs {
				m, ok := svc.CPlane().SegDemandMax(sr.ID)
				if !ok {
					continue // not on this SegR's segment
				}
				local, err := svc.Store().GetSegR(sr.ID)
				if err != nil {
					t.Fatalf("%s: AS %s lost SegR %s: %v", step, iaKey, sr.ID, err)
				}
				if local.AllocatedEERKbps != m {
					t.Errorf("%s: AS %s SegR %s: store view %d kbps, CPlane demand %d kbps",
						step, iaKey, sr.ID, local.AllocatedEERKbps, m)
				}
			}
		}
		// Pin the value itself at one transit AS, so a view stuck at zero
		// cannot pass.
		if m, _ := f.services[ia(1, 2)].CPlane().SegDemandMax(segrs[0].ID); m != wantUp {
			t.Fatalf("%s: up SegR carries %d kbps at 1-2, want %d", step, m, wantUp)
		}
	}

	src := f.services[ia(1, 11)]
	a, err := src.RequestEER(1, 2, ia(2, 11), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	check("setup", 8_000)
	b, err := src.RequestEER(3, 4, ia(2, 11), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	// 16 Mbps is free upstream but only 12 on the down SegR: the last hops
	// grant 12 and the backward pass adjusts the upstream charges down.
	f.clock.Store(t0 + 1)
	if a, err = src.RenewEER(a, 16_000); err != nil {
		t.Fatal(err)
	}
	if a.Res.BwKbps != 12_000 {
		t.Fatalf("bottlenecked renewal granted %d kbps, want 12000", a.Res.BwKbps)
	}
	check("adjust", 20_000)
	f.clock.Store(t0 + 2)
	if _, err = src.RenewEER(b, 6_000); err != nil {
		t.Fatal(err)
	}
	check("renewal", 18_000)
	if _, err := src.RequestEER(5, 99, ia(2, 11), 1_000); err == nil {
		t.Fatal("vetoed destination accepted")
	}
	check("rollback", 18_000)
	f.clock.Store(t0 + 2 + reservation.EERLifetimeSeconds)
	for _, iaKey := range f.topo.SortedIAs() {
		f.services[iaKey].Tick()
	}
	check("expiry", 0)
}

// TestAllocatedEERKbpsConcurrent drives EER setups and renewals from several
// goroutines at once, with housekeeping ticking alongside, through a
// two-shard fabric. Under -race it checks the store's AllocatedEERKbps view
// is written and read only under synchronization; once quiescent, the view
// must equal the CPlane's demand everywhere and account every live grant.
func TestAllocatedEERKbpsConcurrent(t *testing.T) {
	f := cpFabric(t, 2, nil)
	up, core, down := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	const workers, perWorker = 4, 4
	granted := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				host := uint32(100 + w*perWorker + i)
				g, err := src.RequestEER(host, host, ia(2, 11), 2_000)
				if err != nil {
					t.Errorf("worker %d setup %d: %v", w, i, err)
					return
				}
				if g, err = src.RenewEER(g, 3_000); err != nil {
					t.Errorf("worker %d renewal %d: %v", w, i, err)
					return
				}
				granted[w] += uint64(g.Res.BwKbps)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, iaKey := range f.topo.SortedIAs() {
				f.services[iaKey].Tick()
			}
		}
	}()
	wg.Wait()

	var total uint64
	for _, g := range granted {
		total += g
	}
	for _, iaKey := range f.topo.SortedIAs() {
		svc := f.services[iaKey]
		for _, sr := range []*reservation.SegR{up, core, down} {
			m, ok := svc.CPlane().SegDemandMax(sr.ID)
			if !ok {
				continue
			}
			local, err := svc.Store().GetSegR(sr.ID)
			if err != nil {
				t.Fatal(err)
			}
			if local.AllocatedEERKbps != m {
				t.Errorf("AS %s SegR %s: store view %d kbps, CPlane demand %d kbps",
					iaKey, sr.ID, local.AllocatedEERKbps, m)
			}
		}
	}
	if m, _ := f.services[ia(1, 2)].CPlane().SegDemandMax(up.ID); m != total {
		t.Errorf("up SegR carries %d kbps at 1-2, want the %d kbps granted", m, total)
	}
}

// TestEEBatchRenewWire round-trips the batch request and response encodings.
func TestEEBatchRenewWire(t *testing.T) {
	req := &EEBatchRenewReq{
		SegIDs: []reservation.ID{{SrcAS: ia(1, 11), Num: 7}, {SrcAS: ia(1, 1), Num: 9}},
		Splits: []uint8{2},
		Path: []PathHop{
			{IA: ia(1, 11), In: 0, Eg: 1}, {IA: ia(1, 2), In: 2, Eg: 3}, {IA: ia(1, 1), In: 4, Eg: 0},
		},
		Items: []EEBatchItem{
			{ID: reservation.ID{SrcAS: ia(1, 11), Num: 100}, Ver: 3, BwKbps: 8_000, ExpT: t0 + 16, SrcHost: 1, DstHost: 2},
			{ID: reservation.ID{SrcAS: ia(1, 11), Num: 101}, Ver: 2, BwKbps: 4_000, ExpT: t0 + 16, SrcHost: 3, DstHost: 4},
		},
		Macs:   make([][16]byte, 3),
		Accums: []uint64{8_000, 4_000},
		Status: []uint8{EEItemOK, EEItemThrottled},
	}
	req.Macs[1][0] = 0xab
	got, err := UnmarshalEEBatchRenewReq(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), req.Marshal()) {
		t.Fatalf("request round-trip mismatch:\n%+v\n%+v", got, req)
	}
	resp := &EEBatchRenewResp{
		OK:       true,
		Granted:  []uint64{8_000, 0},
		Status:   []uint8{EEItemOK, EEItemRefused},
		EncAuths: [][]byte{{1, 2, 3}, nil, {4, 5}, nil, nil, {6}},
	}
	gotR, err := UnmarshalEEBatchRenewResp(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotR.Marshal(), resp.Marshal()) {
		t.Fatalf("response round-trip mismatch:\n%+v\n%+v", gotR, resp)
	}
}

// TestEEBatchRenewEndToEnd renews a wave of EERs in one batched round trip
// through the live CPlane-backed path and checks the grants match what the
// per-EER path would produce: version bumped, bandwidth kept, and hop
// authenticators that verify against each on-path AS's own Eq. 4.
func TestEEBatchRenewEndToEnd(t *testing.T) {
	f := cpFabric(t, 4, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	var prevs []*EERGrant
	bws := []uint64{8_000, 4_000, 2_000, 6_000, 1_000}
	for i, bw := range bws {
		g, err := src.RequestEER(uint32(100+i), uint32(200+i), ia(2, 11), bw)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		prevs = append(prevs, g)
	}
	f.clock.Store(t0 + 1)
	grants, errs := src.RenewEERBatch(prevs, bws)
	for i := range grants {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		g := grants[i]
		if g.Res.Ver != 2 || uint64(g.Res.BwKbps) != bws[i] || g.Res.ExpT != t0+1+reservation.EERLifetimeSeconds {
			t.Fatalf("item %d grant: %+v", i, g.Res)
		}
		for h, ph := range g.PathHops {
			svc := f.services[ph.IA]
			want := svc.hopAuth(&g.Res, &g.EER, packet.HopField{In: ph.In, Eg: ph.Eg})
			if g.HopAuths[h] != want {
				t.Errorf("item %d hop %d (%s): σ mismatch", i, h, ph.IA)
			}
		}
	}
	// Renewing the *fresh* versions again in the same second is throttled
	// per EER — but a straggler retrying its *committed* renewal (same
	// version) is answered from the idempotent dedup, not throttled.
	_, errs = src.RenewEERBatch(grants, bws)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("item %d renewed twice in one second", i)
		}
	}
	before := src.Metrics().DedupHits.Value()
	retry, rerrs := src.RenewEERBatch([]*EERGrant{prevs[2]}, []uint64{bws[2]})
	if rerrs[0] != nil || retry[0].Res.Ver != 2 || uint64(retry[0].Res.BwKbps) != bws[2] {
		t.Fatalf("dedup retry: grant=%+v err=%v", retry[0], rerrs[0])
	}
	if src.Metrics().DedupHits.Value() == before {
		t.Error("retried renewal was re-admitted instead of deduplicated")
	}
}

// TestEEBatchRenewDifferential replays the same renewal workload through the
// batched path and the per-EER path on twin CPlane fabrics and demands
// identical grants and refusals — including the oversubscribed tail.
func TestEEBatchRenewDifferential(t *testing.T) {
	single := cpFabric(t, 4, nil)
	batched := cpFabric(t, 4, nil)
	single.setupAllSegRs(t, 50_000)
	batched.setupAllSegRs(t, 50_000)

	setup := func(f *fabric) []*EERGrant {
		src := f.services[ia(1, 11)]
		var gs []*EERGrant
		for i := uint32(0); i < 6; i++ {
			g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
			if err != nil {
				t.Fatalf("setup %d: %v", i, err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	sg, bg := setup(single), setup(batched)
	single.clock.Store(t0 + 1)
	batched.clock.Store(t0 + 1)

	bws := make([]uint64, len(sg))
	for i, g := range sg {
		bws[i] = uint64(g.Res.BwKbps)
	}
	var singleOut []string
	for i, g := range sg {
		ng, err := single.services[ia(1, 11)].RenewEER(g, bws[i])
		singleOut = append(singleOut, fmt.Sprintf("%v/%d", err == nil, grantBw(ng)))
	}
	grants, errs := batched.services[ia(1, 11)].RenewEERBatch(bg, bws)
	for i := range grants {
		got := fmt.Sprintf("%v/%d", errs[i] == nil, grantBw(grants[i]))
		if got != singleOut[i] {
			t.Errorf("item %d: per-EER path %s, batched path %s", i, singleOut[i], got)
		}
	}
}

// TestKeeperFleetBatchedFailover replays the keeper failover scenario
// (renew → transport death → demotion at expiry → recovery → re-promotion)
// through KeeperFleet's batched waves, where the downstream loss of a whole
// wave demotes every flow at once and the recovering wave re-promotes them
// by re-admission at the hops that lost the records.
func TestKeeperFleetBatchedFailover(t *testing.T) {
	gate := &gateTransport{}
	f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			gate.inner = cfg.Transport
			cfg.Transport = gate
		}
	})
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	gw := &fakeInstaller{}
	fleet := NewKeeperFleet(src)
	fleet.BatchSize = 3 // force multiple waves per tick
	const n = 8
	for i := uint32(0); i < n; i++ {
		g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 2_000)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Add(NewEERKeeper(src, gw, g, 4))
	}

	// Fresh grants: nothing due.
	if failed := fleet.Tick(); failed != 0 || gw.installs != 0 {
		t.Fatalf("fresh tick: failed=%d installs=%d", failed, gw.installs)
	}
	// Lead window: one batched wave renews everything.
	f.clock.Store(t0 + 13)
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("renewal tick failed %d items", failed)
	}
	if gw.installs != n {
		t.Fatalf("installs = %d, want %d", gw.installs, n)
	}
	for _, k := range fleet.Keepers() {
		if k.Renewals != 1 || k.Grant().Res.Ver != 2 {
			t.Fatalf("keeper state: renewals=%d ver=%d", k.Renewals, k.Grant().Res.Ver)
		}
	}
	exp := fleet.Keepers()[0].Grant().Res.ExpT

	// Transport dies mid-lifetime: failures tolerated, no demotion.
	gate.fail.Store(true)
	f.clock.Store(exp - 3)
	if failed := fleet.Tick(); failed != n || fleet.Demoted() != 0 {
		t.Fatalf("mid-life outage: failed=%d demoted=%d", failed, fleet.Demoted())
	}
	// Still down when the versions die: the whole fleet falls back to
	// best-effort.
	f.clock.Store(exp - 1)
	if failed := fleet.Tick(); failed != n || fleet.Demoted() != n {
		t.Fatalf("at expiry: failed=%d demoted=%d", failed, fleet.Demoted())
	}
	if got := src.Metrics().Demotions.Value(); got != n {
		t.Fatalf("Demotions = %d, want %d", got, n)
	}
	// Recovery after expiry: downstream hops have expired the records, so
	// the batched renewal re-admits them and every flow re-promotes.
	gate.fail.Store(false)
	f.clock.Store(exp + 2)
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("recovery tick failed %d items", failed)
	}
	if fleet.Demoted() != 0 {
		t.Fatalf("%d flows still demoted after recovery", fleet.Demoted())
	}
	if got := src.Metrics().Promotions.Value(); got != n {
		t.Fatalf("Promotions = %d, want %d", got, n)
	}
}
