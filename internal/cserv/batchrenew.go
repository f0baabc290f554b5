// batchrenew.go — the batched EER renewal message (tag 6) and its handler.
//
// A renewal storm is the control plane's steady-state load: every live EER
// renews once per lifetime (16 s, §4.2), so a million flows mean ~60 k
// renewals per second arriving at each on-path CServ. Sending each as its
// own EESetupReq costs one MAC verification, one rate-limit token, and one
// transport round per EER per hop. EEBatchRenewReq amortizes all three: a
// wave of renewals that share one SegR chain (same SegIDs, Splits, and Path
// — the common case, since a source AS's flows to one destination ride the
// same chain) travels as one message with one MAC per hop, and the handler
// feeds the single-segment items of the wave to CPlane.RenewBatch, which
// takes each shard lock once per wave instead of once per renewal.
//
// The per-item protocol semantics mirror processEESetup's renewal leg:
// idempotent dedup by (ID, Ver, ExpT), the per-EER renewal throttle, grants
// shrinking to the path-wide minimum on the response pass, and rollback to
// the previous version when a downstream hop fails.
package cserv

import (
	"encoding/binary"
	"fmt"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Per-item status codes of a batch renewal. They travel in the request's
// mutable tail (an upstream refusal tells downstream hops to skip the item)
// and in the response (the source learns each item's fate).
const (
	// EEItemOK: the item is live — admitted at every hop so far.
	EEItemOK uint8 = 0
	// EEItemRefused: a hop refused the renewal (insufficient bandwidth); the
	// flow falls back to its previous version until expiry (§4.2).
	EEItemRefused uint8 = 1
	// EEItemStale: a hop no longer held the EER's record (expired or lost in
	// a crash) and re-admission failed too.
	EEItemStale uint8 = 2
	// EEItemThrottled: the per-EER renewal rate limit rejected the item.
	EEItemThrottled uint8 = 3
)

// EEBatchItem is one renewal of an EEBatchRenewReq.
type EEBatchItem struct {
	ID      reservation.ID
	Ver     uint16
	BwKbps  uint64
	ExpT    uint32
	SrcHost uint32
	DstHost uint32
}

// Wire sizes of one batch item: its body encoding (ID, Ver, BwKbps, ExpT,
// SrcHost, DstHost) and its mutable tail entry (accumulated grant, status),
// which the response's per-item entry shares.
const (
	eeBatchItemLen = 12 + 2 + 8 + 4 + 4 + 4
	eeBatchTailLen = 8 + 1
)

// EEBatchRenewReq renews a wave of EERs that share one SegR chain. SegIDs,
// Splits, and Path have EESetupReq's meaning and apply to every item. Accums
// and Status are AS-added mutable data (outside the source's MACs, like
// EESetupReq.AccumKbps): Accums[i] carries item i's running-minimum grant and
// Status[i] its first refusal, so downstream hops skip dead items.
type EEBatchRenewReq struct {
	SegIDs []reservation.ID
	Splits []uint8
	Path   []PathHop
	Items  []EEBatchItem
	Macs   [][cryptoutil.MACSize]byte
	Accums []uint64
	Status []uint8
}

// Body returns the MAC-covered canonical encoding.
func (r *EEBatchRenewReq) Body() []byte {
	b := make([]byte, 0, 64+16*len(r.Path)+32*len(r.Items))
	b = append(b, tagEEBatchRenew)
	b = append(b, byte(len(r.SegIDs)))
	for _, id := range r.SegIDs {
		b = appendID(b, id)
	}
	b = append(b, byte(len(r.Splits)))
	b = append(b, r.Splits...)
	b = appendHops(b, r.Path)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		b = appendID(b, it.ID)
		b = binary.BigEndian.AppendUint16(b, it.Ver)
		b = binary.BigEndian.AppendUint64(b, it.BwKbps)
		b = binary.BigEndian.AppendUint32(b, it.ExpT)
		b = binary.BigEndian.AppendUint32(b, it.SrcHost)
		b = binary.BigEndian.AppendUint32(b, it.DstHost)
	}
	return b
}

// Marshal appends the MACs and the mutable per-item tail to the body.
func (r *EEBatchRenewReq) Marshal() []byte {
	b := appendMacs(r.Body(), r.Macs)
	for i := range r.Items {
		b = binary.BigEndian.AppendUint64(b, r.Accums[i])
		b = append(b, r.Status[i])
	}
	return b
}

// UnmarshalEEBatchRenewReq parses an EEBatchRenewReq.
func UnmarshalEEBatchRenewReq(data []byte) (*EEBatchRenewReq, error) {
	d := decoder{buf: data}
	if d.u8() != tagEEBatchRenew {
		return nil, ErrBadTag
	}
	r := &EEBatchRenewReq{}
	nseg := int(d.u8())
	for i := 0; i < nseg && d.err == nil; i++ {
		r.SegIDs = append(r.SegIDs, d.id())
	}
	nsplit := int(d.u8())
	for i := 0; i < nsplit && d.err == nil; i++ {
		r.Splits = append(r.Splits, d.u8())
	}
	r.Path = d.hops()
	// Each item occupies its body encoding plus its mutable tail entry.
	n := d.count(eeBatchItemLen + eeBatchTailLen)
	if d.err == nil {
		r.Items = make([]EEBatchItem, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		r.Items = append(r.Items, EEBatchItem{
			ID: d.id(), Ver: d.u16(), BwKbps: d.u64(),
			ExpT: d.u32(), SrcHost: d.u32(), DstHost: d.u32(),
		})
	}
	r.Macs = d.macs()
	if d.err == nil {
		r.Accums = make([]uint64, 0, n)
		r.Status = make([]uint8, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		r.Accums = append(r.Accums, d.u64())
		r.Status = append(r.Status, d.u8())
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// EEBatchRenewResp travels the reverse path. OK reports the batch was
// processed end to end (individual items may still be refused — see Status);
// !OK means a hop could not process the batch at all and every hop rolled
// back every item. EncAuths is item-major flattened: EncAuths[i*len(Path)+h]
// is AS h's sealed hop authenticator for item i (empty for dead items).
type EEBatchRenewResp struct {
	OK       bool
	FailedAt uint8
	Reason   string
	Granted  []uint64
	Status   []uint8
	EncAuths [][]byte
}

// Marshal encodes the response.
func (r *EEBatchRenewResp) Marshal() []byte {
	b := []byte{boolByte(r.OK), r.FailedAt}
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Granted)))
	for i := range r.Granted {
		b = binary.BigEndian.AppendUint64(b, r.Granted[i])
		b = append(b, r.Status[i])
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.EncAuths)))
	for _, ea := range r.EncAuths {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ea)))
		b = append(b, ea...)
	}
	return b
}

// UnmarshalEEBatchRenewResp parses an EEBatchRenewResp.
func UnmarshalEEBatchRenewResp(data []byte) (*EEBatchRenewResp, error) {
	d := decoder{buf: data}
	r := &EEBatchRenewResp{}
	r.OK = d.u8() == 1
	r.FailedAt = d.u8()
	r.Reason = d.str()
	n := d.count(eeBatchTailLen)
	if d.err == nil {
		r.Granted = make([]uint64, 0, n)
		r.Status = make([]uint8, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		r.Granted = append(r.Granted, d.u64())
		r.Status = append(r.Status, d.u8())
	}
	na := d.count(2)
	for i := 0; i < na && d.err == nil; i++ {
		m := int(d.u16())
		if m == 0 {
			r.EncAuths = append(r.EncAuths, nil)
			continue
		}
		ea := make([]byte, m)
		d.bytes(ea)
		r.EncAuths = append(r.EncAuths, ea)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// eeBatchState tracks one item's fate at this hop during the forward pass.
type eeBatchState struct {
	grant    uint64
	status   uint8
	dup      bool
	admitted bool
	hadPrev  bool
	prevBw   uint64
	prevExpT uint32
	prevVer  uint16
	// Transfer-split accounting (§4.7): what this item added via Admit, so
	// every non-surviving path returns it exactly (see processEESetup's
	// releaseT — the split tracks live committed charges only). prevReleased
	// records that the forward pass already returned the replaced version's
	// charge, which a rollback must re-add when it reinstates that version.
	tAdmitted       bool
	prevReleased    bool
	tCapped, tGrant uint64
}

// processEEBatchRenew handles a batched renewal wave at hop idx: one MAC
// verification and one rate-limit token for the whole wave, per-item dedup /
// throttle / admission, a single shard-major CPlane.RenewBatch for the
// single-segment items (transfer-AS hops renew item-by-item through
// RenewEERPath, which locks both owning shards), then forward and the
// response-pass adjust/seal. A transport-level downstream failure rolls back
// every non-duplicate item this hop admitted.
func (s *Service) processEEBatchRenew(req *EEBatchRenewReq, idx int) (resp_ *EEBatchRenewResp) {
	defer func() {
		if resp_.OK {
			for i := range resp_.Status {
				if resp_.Status[i] == EEItemOK {
					s.metrics.EERenewOK.Add(1)
				} else {
					s.metrics.EERenewFail.Add(1)
				}
			}
		} else {
			s.metrics.EERenewFail.Add(uint64(len(req.Items)))
		}
		s.metrics.Trace(int64(s.clock())*1e9, telemetry.EvEERenew,
			fmt.Sprintf("batch[%d]", len(req.Items)), resp_.OK, resp_.Reason)
	}()
	fail := func(format string, args ...any) *EEBatchRenewResp {
		return &EEBatchRenewResp{FailedAt: uint8(idx), Reason: fmt.Sprintf(format, args...)}
	}
	if len(req.Items) == 0 || len(req.Accums) != len(req.Items) || len(req.Status) != len(req.Items) {
		return fail("malformed batch")
	}
	if idx > 0 {
		if err := s.verifySourceMac(req.Items[0].ID.SrcAS, req.Body(), req.Macs, idx); err != nil {
			s.metrics.AuthFailures.Add(1)
			return fail("authentication: %v", err)
		}
		// One rate-limit token per wave: the batch is one control message,
		// and per-item charging would make batching pointless under §5.3's
		// per-AS budget.
		if !s.rate.Allow(req.Items[0].ID.SrcAS, s.clock()) {
			s.metrics.RateLimited.Add(1)
			return fail("rate limited")
		}
	}
	now := s.clock()
	covering := coveringSegs(len(req.SegIDs), req.Splits, len(req.Path), idx)
	if len(covering) == 0 {
		return fail("hop %d is not covered by any segment reservation", idx)
	}
	localSegIDs := make([]reservation.ID, 0, 2)
	segRs := make([]*reservation.SegR, 0, 2)
	for _, k := range covering {
		sr, err := s.store.GetSegR(req.SegIDs[k])
		if err != nil {
			return fail("segment reservation: %v", err)
		}
		localSegIDs = append(localSegIDs, sr.ID)
		segRs = append(segRs, sr)
	}
	transferHop := len(segRs) == 2 && segRs[0].SegType == segment.Up && segRs[1].SegType == segment.Core
	// The store's view of the CPlane's charges follows on every exit below.
	defer func() {
		for _, seg := range localSegIDs {
			s.publishEERDemand(seg)
		}
	}()
	hop := req.Path[idx]

	states := make([]eeBatchState, len(req.Items))
	// Forward pass, stage 1: dedup, throttle, previous-version capture, and
	// the transfer-AS split. Single-segment renewals are deferred into one
	// shard-major wave; two-segment records (transfer and core/down hops)
	// and re-admissions run inline through the path ops.
	waveEligible := len(localSegIDs) == 1
	var waveItems []EERRenewal
	var waveIdx []int
	if waveEligible {
		waveItems = make([]EERRenewal, 0, len(req.Items))
		waveIdx = make([]int, 0, len(req.Items))
	}
	for i := range req.Items {
		it := &req.Items[i]
		st := &states[i]
		if req.Status[i] != EEItemOK {
			st.status = req.Status[i]
			continue
		}
		asked := req.Accums[i]
		if asked > it.BwKbps {
			asked = it.BwKbps
		}
		// Idempotent retry dedup, before the throttle (a retry of the very
		// renewal the throttle just admitted must not be throttled).
		bw, ver, expT, ok := s.cp.LookupEER(it.ID, localSegIDs[0])
		if ok && ver == it.Ver && expT == it.ExpT {
			st.dup, st.grant = true, bw
			s.metrics.DedupHits.Add(1)
			continue
		}
		st.hadPrev, st.prevBw, st.prevVer, st.prevExpT = ok, bw, ver, expT
		if !s.renewLim.Allow(it.ID, now) {
			s.metrics.RenewThrottle.Add(1)
			st.status = EEItemThrottled
			continue
		}
		grant := asked
		if transferHop {
			up, core := segRs[0], segRs[1]
			upAvail := s.cp.SegAvail(up.ID, now, it.ExpT)
			coreAvail := s.cp.SegAvail(core.ID, now, it.ExpT)
			if st.hadPrev && st.prevExpT > now {
				// The renewal replaces this EER's own live charge; credit it so
				// the split sees the post-renewal headroom.
				upAvail += st.prevBw
				coreAvail += st.prevBw
			}
			grant = s.transfer.Admit(core.ID, up.ID, asked,
				up.Active.BwKbps, core.Active.BwKbps, upAvail, coreAvail)
			st.tCapped = asked
			if st.tCapped > up.Active.BwKbps {
				st.tCapped = up.Active.BwKbps
			}
			if grant == 0 {
				s.transfer.Release(core.ID, up.ID, st.tCapped, grant)
				s.metrics.AdmReject.Add(1)
				s.metrics.AdmFallback.Add(1)
				st.status = EEItemRefused
				continue
			}
			st.tAdmitted, st.tGrant = true, grant
		}
		switch {
		case waveEligible && st.hadPrev:
			// Deferred into the shard-major wave below.
			waveItems = append(waveItems, EERRenewal{
				EER: it.ID, Seg: localSegIDs[0], BwKbps: grant, ExpT: it.ExpT, Ver: it.Ver,
			})
			waveIdx = append(waveIdx, i)
		case st.hadPrev:
			g, err := s.cp.RenewEERPath(it.ID, localSegIDs, grant, it.ExpT, it.Ver)
			if err != nil {
				s.releaseBatchTransfer(localSegIDs, st)
				s.metrics.AdmReject.Add(1)
				s.metrics.AdmFallback.Add(1)
				st.status = EEItemRefused
				continue
			}
			st.grant, st.admitted = g, true
		default:
			// No record here (expired, or lost in a crash): re-admit so the
			// flow re-promotes instead of staying demoted (§3.2).
			if err := s.cp.SetupEERPath(it.ID, localSegIDs, grant, it.ExpT, it.Ver); err != nil {
				s.releaseBatchTransfer(localSegIDs, st)
				s.metrics.AdmReject.Add(1)
				s.metrics.AdmFallback.Add(1)
				st.status = EEItemStale
				continue
			}
			st.grant, st.admitted = grant, true
		}
		if st.tAdmitted {
			// Settle the split to the admitted charge immediately: release the
			// over-ask (capped − grant) and the replaced version's live charge,
			// exactly as sequential per-EER processing would have done before
			// the next renewal's Admit — later items in the wave must see the
			// same intermediate demand, or the two paths' grants diverge.
			s.transfer.Release(localSegIDs[1], localSegIDs[0], st.tCapped-st.tGrant, 0)
			st.tCapped = st.tGrant
			if st.hadPrev && st.prevExpT > now {
				s.transfer.Release(localSegIDs[1], localSegIDs[0], st.prevBw, st.prevBw)
				st.prevReleased = true
			}
		}
	}
	// Forward pass, stage 2: the deferred single-segment renewals as ONE
	// shard-major wave — each shard lock is taken once for the whole batch,
	// fanned across the CPlane's workers.
	if len(waveItems) > 0 {
		waveResults := make([]RenewResult, len(waveItems))
		s.cp.RenewBatch(waveItems, waveResults)
		for w, i := range waveIdx {
			st := &states[i]
			if err := waveResults[w].Err; err != nil {
				s.metrics.AdmReject.Add(1)
				s.metrics.AdmFallback.Add(1)
				st.status = EEItemRefused
				continue
			}
			st.grant, st.admitted = waveResults[w].Granted, true
		}
	}
	rollbackAll := func() {
		for i := range req.Items {
			st := &states[i]
			if !st.admitted || st.dup {
				continue
			}
			s.rollbackBatchItem(&req.Items[i], localSegIDs, st)
		}
	}

	// Propagate this hop's outcomes into the mutable tail and forward.
	for i := range req.Items {
		req.Accums[i] = states[i].grant
		if req.Status[i] == EEItemOK {
			req.Status[i] = states[i].status
		}
	}
	var resp *EEBatchRenewResp
	if idx == len(req.Path)-1 {
		resp = &EEBatchRenewResp{
			OK:       true,
			Granted:  make([]uint64, len(req.Items)),
			Status:   make([]uint8, len(req.Items)),
			EncAuths: make([][]byte, len(req.Items)*len(req.Path)),
		}
		copy(resp.Granted, req.Accums)
		copy(resp.Status, req.Status)
	} else {
		next := req.Path[idx+1].IA
		data, err := s.transport.Call(next, req.Marshal())
		if err != nil {
			resp = &EEBatchRenewResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("transport: %v", err)}
		} else if resp, err = UnmarshalEEBatchRenewResp(data); err != nil {
			resp = &EEBatchRenewResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("response: %v", err)}
		}
	}
	if !resp.OK || len(resp.Granted) != len(req.Items) || len(resp.EncAuths) != len(req.Items)*len(req.Path) {
		rollbackAll()
		if resp.OK {
			return fail("malformed downstream response")
		}
		return resp
	}

	// Response pass: adjust live items to the path-wide minimum, roll back
	// items a downstream hop killed, and seal this AS's hop authenticators.
	keys := make(map[topology.IA]cryptoutil.Key, 1)
	for i := range req.Items {
		it := &req.Items[i]
		st := &states[i]
		if resp.Status[i] != EEItemOK {
			if st.admitted && !st.dup {
				s.rollbackBatchItem(it, localSegIDs, st)
			}
			continue
		}
		final := resp.Granted[i]
		if final < st.grant {
			s.cp.AdjustEERPath(it.ID, localSegIDs, final)
		}
		res := &packet.ResInfo{
			SrcAS:  it.ID.SrcAS,
			ResID:  it.ID.Num,
			BwKbps: uint32(final),
			ExpT:   it.ExpT,
			Ver:    it.Ver,
		}
		eerInfo := &packet.EERInfo{SrcHost: it.SrcHost, DstHost: it.DstHost}
		sigma := s.hopAuth(res, eerInfo, packet.HopField{In: hop.In, Eg: hop.Eg})
		key, ok := keys[it.ID.SrcAS]
		if !ok {
			key, _ = s.engine.Level1(it.ID.SrcAS, now)
			keys[it.ID.SrcAS] = key
		}
		sealed, err := cryptoutil.Seal(key, sigma[:], eerAuthAD(it.ID, uint8(idx)))
		if err != nil {
			if st.admitted && !st.dup {
				s.rollbackBatchItem(it, localSegIDs, st)
			}
			resp.Status[i] = EEItemRefused
			resp.Granted[i] = 0
			continue
		}
		if st.tAdmitted {
			// Committed: clamp the split's record of this item — already
			// settled to its grant in the forward pass — down to the final
			// path-wide grant (the split tracks live committed bandwidth only).
			s.transfer.Release(localSegIDs[1], localSegIDs[0], st.tCapped-final, st.tGrant-final)
			st.tAdmitted = false
		}
		resp.EncAuths[i*len(req.Path)+idx] = sealed
	}
	return resp
}

// releaseBatchTransfer returns an item's transfer-split admission in full —
// called on every path where the item's new version does not survive this
// hop. tAdmitted is only ever set at a transfer hop, where localSegIDs is
// the [up, core] pair.
func (s *Service) releaseBatchTransfer(localSegIDs []reservation.ID, st *eeBatchState) {
	if !st.tAdmitted {
		return
	}
	s.transfer.Release(localSegIDs[1], localSegIDs[0], st.tCapped, st.tGrant)
	st.tAdmitted = false
}

// rollbackBatchItem undoes one admitted batch item: the CPlane reinstates the
// previous version, or drops the record when this hop re-admitted a lost
// EER.
func (s *Service) rollbackBatchItem(it *EEBatchItem, localSegIDs []reservation.ID, st *eeBatchState) {
	s.releaseBatchTransfer(localSegIDs, st)
	if st.prevReleased {
		// The rollback reinstates the previous version below; re-add the
		// charge the forward pass returned for it.
		s.transfer.Charge(localSegIDs[1], localSegIDs[0], st.prevBw, st.prevBw)
		st.prevReleased = false
	}
	if st.hadPrev {
		s.cp.RestoreEERPath(it.ID, localSegIDs, st.prevBw, st.prevExpT, st.prevVer)
	} else {
		s.cp.TeardownEERPath(it.ID, localSegIDs)
	}
}

// RenewEERBatch renews a wave of EERs that share one chain (same SegIDs,
// Splits, and Path — callers group by chain signature, see KeeperFleet) in a
// single batched round trip. newBwKbps[i] is the bandwidth requested for
// prevs[i]. It returns one grant or one error per item; a transport-level
// batch failure yields the same error for every item.
func (s *Service) RenewEERBatch(prevs []*EERGrant, newBwKbps []uint64) ([]*EERGrant, []error) {
	grants := make([]*EERGrant, len(prevs))
	errs := make([]error, len(prevs))
	if len(prevs) == 0 {
		return grants, errs
	}
	if len(newBwKbps) != len(prevs) {
		for i := range errs {
			errs[i] = fmt.Errorf("cserv: RenewEERBatch: %d bandwidths for %d items", len(newBwKbps), len(prevs))
		}
		return grants, errs
	}
	now := s.clock()
	req := &EEBatchRenewReq{
		SegIDs: prevs[0].SegIDs,
		Splits: prevs[0].Splits,
		Path:   prevs[0].PathHops,
		Items:  make([]EEBatchItem, len(prevs)),
		Accums: make([]uint64, len(prevs)),
		Status: make([]uint8, len(prevs)),
	}
	for i, p := range prevs {
		req.Items[i] = EEBatchItem{
			ID:      p.ID,
			Ver:     p.Res.Ver + 1,
			BwKbps:  newBwKbps[i],
			ExpT:    now + reservation.EERLifetimeSeconds,
			SrcHost: p.EER.SrcHost,
			DstHost: p.EER.DstHost,
		}
		req.Accums[i] = newBwKbps[i]
	}
	macs, err := s.computeMacs(req.Path, req.Body())
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return grants, errs
	}
	req.Macs = macs
	resp := s.processEEBatchRenew(req, 0)
	if !resp.OK {
		for i := range errs {
			errs[i] = fmt.Errorf("%w: batch renewal failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
		}
		return grants, errs
	}
	// Decrypt the hop authenticators (Eq. 5) for the surviving items; level-1
	// keys are fetched once per hop, not once per item.
	hopKeys := make([]cryptoutil.Key, len(req.Path))
	for h, ph := range req.Path {
		if ph.IA == s.ia {
			hopKeys[h], _ = s.engine.Level1(s.ia, now)
		} else {
			hopKeys[h], err = s.keys.Get(ph.IA, now)
			if err != nil {
				for i := range errs {
					errs[i] = err
				}
				return grants, errs
			}
		}
	}
	for i, p := range prevs {
		switch resp.Status[i] {
		case EEItemOK:
		case EEItemStale:
			errs[i] = fmt.Errorf("%w: renewal of %s: stale at some hop and re-admission failed", ErrRefused, p.ID)
			continue
		case EEItemThrottled:
			errs[i] = fmt.Errorf("%w: renewal of %s throttled", ErrRefused, p.ID)
			continue
		default:
			errs[i] = fmt.Errorf("%w: renewal of %s refused", ErrRefused, p.ID)
			continue
		}
		it := &req.Items[i]
		g := &EERGrant{
			ID: p.ID,
			Res: packet.ResInfo{
				SrcAS:  p.ID.SrcAS,
				ResID:  p.ID.Num,
				BwKbps: uint32(resp.Granted[i]),
				ExpT:   it.ExpT,
				Ver:    it.Ver,
			},
			EER:      packet.EERInfo{SrcHost: it.SrcHost, DstHost: it.DstHost},
			Path:     HopFields(req.Path),
			PathHops: p.PathHops,
			Splits:   p.Splits,
			SegIDs:   p.SegIDs,
			HopAuths: make([]cryptoutil.Key, len(req.Path)),
		}
		bad := false
		for h := range req.Path {
			enc := resp.EncAuths[i*len(req.Path)+h]
			pt, oerr := cryptoutil.Open(hopKeys[h], enc, eerAuthAD(p.ID, uint8(h)))
			if oerr != nil {
				errs[i] = fmt.Errorf("cserv: opening hop authenticator %d of %s: %w", h, p.ID, oerr)
				bad = true
				break
			}
			copy(g.HopAuths[h][:], pt)
		}
		if bad {
			continue
		}
		grants[i] = g
	}
	return grants, errs
}
