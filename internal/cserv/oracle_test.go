package cserv

import (
	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// storeOracle is an independent model of per-hop EER admission along one
// SegR chain, the reference the live path's differential tests compare
// against: every AS charges an EER the maximum bandwidth over its versions
// (§4.8) against plain per-SegR counters, with no time-indexed ledger and
// no code shared with CPlane. Transfer ASes joining an up- and a
// core-SegR apply the §4.7 split exactly as the handlers do, and a request
// runs the handlers' forward pass, downstream rollback and backward-pass
// adjust. Versions never expire in the model: sequences replayed against it
// must stay within one EER lifetime.
type storeOracle struct {
	hops []*oracleHop
	now  func() uint32
}

// oracleHop is one on-path AS's state in the model.
type oracleHop struct {
	// segs are the SegRs covering this hop, in path order.
	segs []reservation.ID
	// bw is each covering SegR's active bandwidth at this AS.
	bw map[reservation.ID]uint64
	// alloc is the EER bandwidth charged to each covering SegR.
	alloc map[reservation.ID]uint64
	// vers holds each flow's versions in ascending version order.
	vers map[int][]reservation.Version
	// split is the up→core transfer split; nil at every other hop.
	split *admission.TransferSplit
}

// newStoreOracle models the chain of the fabric's SegRs, which must be
// listed in path order and be set up at every AS of their segments.
func newStoreOracle(f *fabric, chain ...*reservation.SegR) *storeOracle {
	o := &storeOracle{now: f.now}
	for k, sr := range chain {
		for i, h := range sr.Seg.Hops {
			if k > 0 && i == 0 {
				// The joining AS is the previous segment's last hop.
				hop := o.hops[len(o.hops)-1]
				hop.addSeg(f, h.IA, sr.ID)
				if chain[k-1].SegType == segment.Up && sr.SegType == segment.Core {
					hop.split = admission.NewTransferSplit()
				}
				continue
			}
			hop := &oracleHop{
				bw:    make(map[reservation.ID]uint64),
				alloc: make(map[reservation.ID]uint64),
				vers:  make(map[int][]reservation.Version),
			}
			hop.addSeg(f, h.IA, sr.ID)
			o.hops = append(o.hops, hop)
		}
	}
	return o
}

func (h *oracleHop) addSeg(f *fabric, iaKey topology.IA, seg reservation.ID) {
	sr, err := f.services[iaKey].Store().GetSegR(seg)
	if err != nil {
		panic(err)
	}
	h.segs = append(h.segs, seg)
	h.bw[seg] = sr.Active.BwKbps
}

// contrib is the flow's charge: the maximum over its versions.
func (h *oracleHop) contrib(flow int) uint64 {
	var m uint64
	for _, v := range h.vers[flow] {
		m = max(m, v.BwKbps)
	}
	return m
}

// recharge moves the flow's charge on every covering SegR from old to its
// current contribution.
func (h *oracleHop) recharge(flow int, old uint64) {
	now := h.contrib(flow)
	for _, seg := range h.segs {
		h.alloc[seg] = h.alloc[seg] - old + now
	}
}

func (h *oracleHop) avail(seg reservation.ID) uint64 {
	if h.alloc[seg] >= h.bw[seg] {
		return 0
	}
	return h.bw[seg] - h.alloc[seg]
}

// request runs one setup or renewal of the flow at version v, returning
// the path-wide grant and whether every hop admitted it.
func (o *storeOracle) request(flow int, v reservation.Version, renewal bool) (uint64, bool) {
	return o.forward(0, flow, v, renewal, v.BwKbps)
}

func (o *storeOracle) forward(k, flow int, v reservation.Version, renewal bool, accum uint64) (uint64, bool) {
	h := o.hops[k]
	vers := h.vers[flow]
	var prev reservation.Version
	if len(vers) > 0 {
		prev = vers[len(vers)-1]
	}
	// A renewal replaces its live predecessor: the split sees that charge as
	// headroom and gets it back once the new version commits.
	credit := renewal && len(vers) > 0 && prev.ExpT > o.now()

	grant := accum
	var capped uint64
	up, core := h.segs[0], h.segs[len(h.segs)-1]
	if h.split != nil {
		upAvail, coreAvail := h.avail(up), h.avail(core)
		if credit {
			upAvail += prev.BwKbps
			coreAvail += prev.BwKbps
		}
		grant = h.split.Admit(core, up, accum, h.bw[up], h.bw[core], upAvail, coreAvail)
		capped = min(accum, h.bw[up])
		if grant == 0 || (!renewal && grant < accum) {
			h.split.Release(core, up, capped, grant)
			return 0, false
		}
	}
	splitGrant := grant

	// All versions share one budget: only growth of the maximum is charged.
	old := h.contrib(flow)
	if grant > old {
		for _, seg := range h.segs {
			if h.avail(seg) < grant-old {
				if h.split != nil {
					h.split.Release(core, up, capped, splitGrant)
				}
				return 0, false
			}
		}
	}
	h.vers[flow] = append(vers, reservation.Version{Ver: v.Ver, BwKbps: grant, ExpT: v.ExpT})
	h.recharge(flow, old)
	last := len(h.vers[flow]) - 1

	final := grant
	if k+1 < len(o.hops) {
		var ok bool
		if final, ok = o.forward(k+1, flow, v, renewal, grant); !ok {
			if h.split != nil {
				h.split.Release(core, up, capped, splitGrant)
			}
			old := h.contrib(flow)
			h.vers[flow] = h.vers[flow][:last]
			h.recharge(flow, old)
			return 0, false
		}
	}
	if final < grant {
		old := h.contrib(flow)
		h.vers[flow][last].BwKbps = final
		h.recharge(flow, old)
	}
	if h.split != nil {
		h.split.Release(core, up, capped-final, splitGrant-final)
		if credit {
			h.split.Release(core, up, prev.BwKbps, prev.BwKbps)
		}
	}
	return final, true
}
