// cplane_live.go — the CPlane surface consumed by the live request path
// (service.go / segr.go / eer.go / batchrenew.go), which keeps all of a
// Service's admission state in its CPlane.
//
// The batch engine in cplane.go keeps its one-lock-per-op discipline; the
// live path additionally needs
//
//   - SegR admission wrappers that mirror admission.Admitter's renewal/
//     adjust/abort surface while keeping the per-shard segBw cache and the
//     EER demand ledgers coherent,
//   - EER operations over one OR two covering SegRs: at a transfer AS an
//     EER entering on an up-segment and leaving on a core-segment consumes
//     bandwidth on both (§4.7), and the two SegRs may live in different
//     shards,
//   - version-aware lookup for the handlers' idempotent dedup of retried
//     requests, and
//   - forced SegR drop for the store-cleanup path.
//
// Lock discipline: every function here acquires the shards it needs in
// ascending shard-index order and holds them to completion (deferred
// unlock). Single-lock operations elsewhere never acquire a second shard
// lock while holding one, so ordered acquisition keeps the engine
// deadlock-free; DropSegR takes its locks strictly one at a time.
package cserv

import (
	"slices"
	"sort"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// LookupEER returns the admitted record of an EER — bandwidth, protocol
// version, and expiry — for the handlers' idempotent dedup. seg must be the
// EER's primary covering SegR (the first local covering segment, which is
// what the handlers admit under).
func (c *CPlane) LookupEER(eer, seg reservation.ID) (bwKbps uint64, ver uint16, expT uint32, ok bool) {
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.eers[eer]
	if !ok || e.seg != seg {
		return 0, 0, 0, false
	}
	return e.bw, e.ver, e.expT, true
}

// SegAvail returns the bandwidth available to new EER admissions over the
// SegR during [fromT, toT): the SegR's grant minus the ledger's maximum
// demand over the window. Unknown SegRs have nothing available.
func (c *CPlane) SegAvail(seg reservation.ID, fromT, toT uint32) uint64 {
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	led, ok := sh.ledgers[seg]
	if !ok {
		return 0
	}
	led.Advance(fromT)
	free := sh.segBw[seg]
	m := led.MaxDemand(fromT, toT)
	if uint64(m) >= free {
		return 0
	}
	return free - uint64(m)
}

// SegDemandMax returns the maximum outstanding EER demand on the SegR from
// now to the end of any admitted EER's lifetime — the value the Service
// publishes into the store's AllocatedEERKbps view for the activation
// over-allocation check. ok is false for unknown SegRs.
func (c *CPlane) SegDemandMax(seg reservation.ID) (uint64, bool) {
	now := c.clock()
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	led, ok := sh.ledgers[seg]
	if !ok {
		return 0, false
	}
	led.Advance(now)
	// EER charges never extend past one lifetime from admission, so two
	// lifetimes from now bounds every live window without approaching the
	// ledger horizon.
	m := led.MaxDemand(now, now+2*reservation.EERLifetimeSeconds)
	if m < 0 {
		m = 0
	}
	return uint64(m), true
}

// RenewSegRWithUndo re-admits a SegR on its shard with fresh scale factors,
// returning an undo closure restoring the pre-renewal snapshot (admitter
// state and cached grant). EER charges are untouched in both directions —
// admitted versions keep their allocations until expiry (§4.2).
func (c *CPlane) RenewSegRWithUndo(req admission.Request) (uint64, func(), error) {
	sh := c.shardFor(req.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, ok := sh.segBw[req.ID]
	if !ok {
		return 0, nil, ErrUnknownSegR
	}
	grant, undo, err := sh.adm.RenewSegRWithUndo(req)
	if err != nil {
		c.rejects.Add(1)
		return 0, nil, err
	}
	sh.segBw[req.ID] = grant
	c.renews.Add(1)
	wrapped := func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if undo != nil {
			undo()
		}
		sh.segBw[req.ID] = prev
	}
	return grant, wrapped, nil
}

// AdjustSegR lowers a SegR's grant to the backward-pass minimum, mirroring
// admission.Admitter.AdjustGrant while keeping the segBw cache coherent.
func (c *CPlane) AdjustSegR(id reservation.ID, finalKbps uint64) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.segBw[id]; !ok {
		return ErrUnknownSegR
	}
	if err := sh.adm.AdjustGrant(id, finalKbps); err != nil {
		return err
	}
	sh.segBw[id] = finalKbps
	return nil
}

// AbortSegR rolls back a fresh AddSegR after a downstream setup failure.
// It must only be used for setups — the ledger is dropped with the SegR, so
// aborting a renewal would orphan admitted EER charges (renewals roll back
// through their undo closure instead).
func (c *CPlane) AbortSegR(id reservation.ID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.segBw[id]; !ok {
		return
	}
	sh.adm.Release(id)
	delete(sh.segBw, id)
	delete(sh.ledgers, id)
	c.segCount.Add(-1)
}

// pathShards returns the shard indices to lock for a covering-SegR set in
// ascending order; b is -1 when one lock suffices (single seg, or both segs
// hash to the same shard).
func (c *CPlane) pathShards(segs []reservation.ID) (a, b int) {
	a = c.shardIndex(segs[0])
	b = -1
	if len(segs) > 1 {
		if i := c.shardIndex(segs[1]); i != a {
			b = i
		}
	}
	if b >= 0 && b < a {
		a, b = b, a
	}
	return a, b
}

// normPath collapses a degenerate two-entry covering set (same SegR twice)
// to a single entry so the two-seg paths can assume distinct segments.
func normPath(segs []reservation.ID) []reservation.ID {
	if len(segs) == 2 && segs[0] == segs[1] {
		return segs[:1]
	}
	return segs
}

// SetupEERPath admits an EER of bwKbps until expT against its covering
// SegRs at this AS — one for most hops, two at a transfer AS (§4.7), in
// which case the demand must fit under BOTH SegRs' grants and is charged on
// both ledgers. Admission is full-or-nothing. The record carries ver for
// idempotent dedup; segs[0] is the primary segment that owns the record.
func (c *CPlane) SetupEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) error {
	segs = normPath(segs)
	if len(segs) == 1 {
		sh := c.shardFor(segs[0])
		now := c.clock()
		sh.mu.Lock()
		err := sh.setupEERLocked(eer, segs[0], bwKbps, now, now, expT, ver)
		sh.mu.Unlock()
		if err != nil {
			if err == restree.ErrExists {
				c.dedups.Add(1)
			} else {
				c.rejects.Add(1)
			}
			return err
		}
		c.eerCount.Add(1)
		c.admits.Add(1)
		return nil
	}
	now := c.clock()
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	prim := c.shardFor(segs[0])
	if _, dup := prim.eers[eer]; dup {
		c.dedups.Add(1)
		return restree.ErrExists
	}
	var leds [2]*restree.Ledger[reservation.ID]
	for k, seg := range segs {
		sh := c.shardFor(seg)
		led, ok := sh.ledgers[seg]
		if !ok {
			c.rejects.Add(1)
			return ErrUnknownSegR
		}
		led.Advance(now)
		free := sh.segBw[seg]
		if m := led.MaxDemand(now, expT); uint64(m) >= free {
			free = 0
		} else {
			free -= uint64(m)
		}
		if bwKbps > free {
			c.rejects.Add(1)
			return ErrInsufficient
		}
		leds[k] = led
	}
	if err := leds[0].Reserve(eer, now, expT, int64(bwKbps)); err != nil {
		c.rejects.Add(1)
		return err
	}
	if err := leds[1].Reserve(eer, now, expT, int64(bwKbps)); err != nil {
		leds[0].Teardown(eer)
		c.rejects.Add(1)
		return err
	}
	prim.eers[eer] = cpEER{seg: segs[0], seg2: segs[1], bw: bwKbps, expT: expT, ver: ver}
	c.eerCount.Add(1)
	c.admits.Add(1)
	return nil
}

// RenewEERPath renews an EER over its covering SegRs, granting
// min(requested, free) where free is evaluated against EVERY covering SegR
// at this AS. A zero grant restores the previous version when it is still
// live (§4.2 fallback) and reports ErrInsufficient; an EER with no record
// reports ErrUnknownEER. Callers needing rollback capture the previous
// record via LookupEER beforehand and reinstate it with RestoreEERPath.
func (c *CPlane) RenewEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) (uint64, error) {
	segs = normPath(segs)
	if len(segs) == 1 {
		it := EERRenewal{EER: eer, Seg: segs[0], BwKbps: bwKbps, ExpT: expT, Ver: ver}
		sh := c.shardFor(segs[0])
		now := c.clock()
		sh.mu.Lock()
		g, err, gone := sh.renewEERLocked(&it, now)
		sh.mu.Unlock()
		switch {
		case err == nil:
			c.renews.Add(1)
		case err == ErrUnknownEER:
			c.stale.Add(1)
		default:
			c.rejects.Add(1)
		}
		if gone {
			c.eerCount.Add(-1)
		}
		return g, err
	}
	now := c.clock()
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	prim := c.shardFor(segs[0])
	e, ok := prim.eers[eer]
	if !ok || e.seg != segs[0] || e.seg2 != segs[1] {
		c.stale.Add(1)
		return 0, ErrUnknownEER
	}
	led0 := prim.ledgers[segs[0]]
	led1 := c.shardFor(segs[1]).ledgers[segs[1]]
	if led0 == nil || led1 == nil {
		c.rejects.Add(1)
		return 0, ErrUnknownSegR
	}
	led0.Advance(now)
	led1.Advance(now)
	// A renewal replaces the version: remove the old charges before probing.
	led0.Teardown(eer)
	led1.Teardown(eer)
	free := c.shardFor(segs[0]).segBw[segs[0]]
	if m := led0.MaxDemand(now, expT); uint64(m) >= free {
		free = 0
	} else {
		free -= uint64(m)
	}
	f2 := c.shardFor(segs[1]).segBw[segs[1]]
	if m := led1.MaxDemand(now, expT); uint64(m) >= f2 {
		f2 = 0
	} else {
		f2 -= uint64(m)
	}
	if f2 < free {
		free = f2
	}
	grant := bwKbps
	if grant > free {
		grant = free
	}
	if grant == 0 {
		if e.expT > now {
			if led0.Reserve(eer, now, e.expT, int64(e.bw)) == nil &&
				led1.Reserve(eer, now, e.expT, int64(e.bw)) == nil {
				c.rejects.Add(1)
				return 0, ErrInsufficient
			}
			led0.Teardown(eer)
			led1.Teardown(eer)
		}
		delete(prim.eers, eer)
		c.eerCount.Add(-1)
		c.rejects.Add(1)
		return 0, ErrInsufficient
	}
	if err := reservePair(led0, led1, eer, now, expT, int64(grant)); err != nil {
		// Window invalid: restore the old version if still live.
		if e.expT > now &&
			led0.Reserve(eer, now, e.expT, int64(e.bw)) == nil &&
			led1.Reserve(eer, now, e.expT, int64(e.bw)) == nil {
			c.rejects.Add(1)
			return 0, err
		}
		led0.Teardown(eer)
		led1.Teardown(eer)
		delete(prim.eers, eer)
		c.eerCount.Add(-1)
		c.rejects.Add(1)
		return 0, err
	}
	prim.eers[eer] = cpEER{seg: segs[0], seg2: segs[1], bw: grant, expT: expT, ver: ver}
	c.renews.Add(1)
	return grant, nil
}

// reservePair charges both ledgers or neither.
func reservePair(led0, led1 *restree.Ledger[reservation.ID], eer reservation.ID, now, expT uint32, bw int64) error {
	if err := led0.Reserve(eer, now, expT, bw); err != nil {
		return err
	}
	if err := led1.Reserve(eer, now, expT, bw); err != nil {
		led0.Teardown(eer)
		return err
	}
	return nil
}

// RestoreEERPath force-reinstates a previous EER version after a downstream
// failure rolled back a setup or renewal: the current charges are removed
// and the given version is re-charged WITHOUT an admission check (it is the
// caller's own prior state, which fits by construction once the newer
// charge is gone). An already-expired version (expT <= now) removes the
// record entirely.
func (c *CPlane) RestoreEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) {
	segs = normPath(segs)
	now := c.clock()
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	prim := c.shardFor(segs[0])
	_, had := prim.eers[eer]
	alive := 0
	for _, seg := range segs {
		if led := c.shardFor(seg).ledgers[seg]; led != nil {
			led.Teardown(eer)
			if expT > now && led.Reserve(eer, now, expT, int64(bwKbps)) == nil {
				alive++
			}
		}
	}
	if expT <= now || alive < len(segs) {
		// Nothing to restore (or a partial restore that must not stand):
		// drop every charge and the record.
		for _, seg := range segs {
			if led := c.shardFor(seg).ledgers[seg]; led != nil {
				led.Teardown(eer)
			}
		}
		if had {
			delete(prim.eers, eer)
			c.eerCount.Add(-1)
		}
		return
	}
	rec := cpEER{seg: segs[0], bw: bwKbps, expT: expT, ver: ver}
	if len(segs) == 2 {
		rec.seg2 = segs[1]
	}
	prim.eers[eer] = rec
	if !had {
		c.eerCount.Add(1)
	}
}

// AdjustEERPath lowers an EER's charge to the backward-pass final grant
// (the response leg shrinking a grant to the path-wide minimum). A zero
// final removes the record. Unknown EERs are a no-op.
func (c *CPlane) AdjustEERPath(eer reservation.ID, segs []reservation.ID, finalKbps uint64) {
	segs = normPath(segs)
	now := c.clock()
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	prim := c.shardFor(segs[0])
	e, ok := prim.eers[eer]
	if !ok || e.seg != segs[0] {
		return
	}
	alive := 0
	for _, seg := range segs {
		if led := c.shardFor(seg).ledgers[seg]; led != nil {
			led.Teardown(eer)
			if finalKbps > 0 && e.expT > now &&
				led.Reserve(eer, now, e.expT, int64(finalKbps)) == nil {
				alive++
			}
		}
	}
	if finalKbps == 0 || e.expT <= now || alive < len(segs) {
		for _, seg := range segs {
			if led := c.shardFor(seg).ledgers[seg]; led != nil {
				led.Teardown(eer)
			}
		}
		delete(prim.eers, eer)
		c.eerCount.Add(-1)
		return
	}
	e.bw = finalKbps
	prim.eers[eer] = e
}

// TeardownEERPath removes an EER and its charges on every covering SegR.
// Unknown EERs are a no-op.
func (c *CPlane) TeardownEERPath(eer reservation.ID, segs []reservation.ID) {
	segs = normPath(segs)
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	prim := c.shardFor(segs[0])
	e, ok := prim.eers[eer]
	if !ok || e.seg != segs[0] {
		return
	}
	for _, seg := range segs {
		if led := c.shardFor(seg).ledgers[seg]; led != nil {
			led.Teardown(eer)
		}
	}
	delete(prim.eers, eer)
	c.eerCount.Add(-1)
}

// DropSegR force-removes a SegR (store cleanup of an expired or torn-down
// segment) along with every EER record referencing it — including
// transfer-AS records whose OTHER covering segment survives: a §4.7 EER
// loses its reservation when either covering SegR goes. It returns those
// surviving other segments, in ID order, whose demand dropped. Locks are
// taken strictly one at a time; iteration collects keys and sorts them so
// runs are deterministic.
func (c *CPlane) DropSegR(id reservation.ID) (others []reservation.ID) {
	type foreignDrop struct {
		shard int
		seg   reservation.ID
		eer   reservation.ID
	}
	var foreign []foreignDrop
	removed := 0
	for si, sh := range c.shards {
		sh.mu.Lock()
		var victims []reservation.ID
		for eid, e := range sh.eers {
			if e.seg == id || e.seg2 == id {
				victims = append(victims, eid)
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].Less(victims[j]) })
		for _, eid := range victims {
			e := sh.eers[eid]
			if e.seg2 != (reservation.ID{}) {
				other := e.seg
				if other == id {
					other = e.seg2
				}
				others = append(others, other)
			}
			if led := sh.ledgers[e.seg]; led != nil {
				led.Teardown(eid)
			}
			if e.seg2 != (reservation.ID{}) {
				if s2 := c.shardIndex(e.seg2); s2 == si {
					if led := sh.ledgers[e.seg2]; led != nil {
						led.Teardown(eid)
					}
				} else {
					foreign = append(foreign, foreignDrop{shard: s2, seg: e.seg2, eer: eid})
				}
			}
			delete(sh.eers, eid)
			removed++
		}
		sh.mu.Unlock()
	}
	for _, d := range foreign {
		sh := c.shards[d.shard]
		sh.mu.Lock()
		if led := sh.ledgers[d.seg]; led != nil {
			led.Teardown(d.eer)
		}
		sh.mu.Unlock()
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	if _, ok := sh.segBw[id]; ok {
		sh.adm.Release(id)
		delete(sh.segBw, id)
		delete(sh.ledgers, id)
		c.segCount.Add(-1)
	}
	sh.mu.Unlock()
	c.eerCount.Add(-int64(removed))
	sort.Slice(others, func(i, j int) bool { return others[i].Less(others[j]) })
	return slices.Compact(others)
}
