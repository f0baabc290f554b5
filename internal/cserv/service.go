package cserv

import (
	"errors"
	"fmt"
	"sync"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/drkey"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Transport carries control-plane messages between CServs (gRPC over QUIC
// in the paper's implementation): Call delivers a marshaled request to the
// CServ of dst and returns its marshaled response synchronously.
type Transport interface {
	Call(dst topology.IA, msg []byte) ([]byte, error)
}

// Policy is the source AS's intra-AS admission policy for its hosts ("it
// falls to the AS in which H_S is situated to set limits on the maximum
// bandwidth that H_S can request", §3.3).
type Policy interface {
	AllowEER(srcHost uint32, bwKbps uint64) error
}

// AllowAll grants every host request.
type AllowAll struct{}

// AllowEER implements Policy.
func (AllowAll) AllowEER(uint32, uint64) error { return nil }

// HostCapPolicy limits each host to a fixed total; zero cap means the
// default cap applies.
type HostCapPolicy struct {
	DefaultCapKbps uint64
	PerHost        map[uint32]uint64

	mu   sync.Mutex
	used map[uint32]uint64
}

// AllowEER implements Policy.
func (p *HostCapPolicy) AllowEER(srcHost uint32, bwKbps uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	capKbps := p.DefaultCapKbps
	if c, ok := p.PerHost[srcHost]; ok {
		capKbps = c
	}
	if p.used == nil {
		p.used = make(map[uint32]uint64)
	}
	if p.used[srcHost]+bwKbps > capKbps {
		return fmt.Errorf("cserv: host %d exceeds its EER cap (%d + %d > %d kbps)",
			srcHost, p.used[srcHost], bwKbps, capKbps)
	}
	p.used[srcHost] += bwKbps
	return nil
}

// ReleaseEER returns host budget when an EER expires.
func (p *HostCapPolicy) ReleaseEER(srcHost uint32, bwKbps uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used[srcHost] >= bwKbps {
		p.used[srcHost] -= bwKbps
	} else {
		p.used[srcHost] = 0
	}
}

// Config assembles a Service.
type Config struct {
	AS    *topology.AS
	Topo  *topology.Topology
	Split admission.TrafficSplit
	// Secret is the AS's data-plane secret K_i used for SegR tokens and hop
	// authenticators; shared with the AS's border routers.
	Secret cryptoutil.Key
	// Engine derives DRKey level-1 keys on the fly (fast side).
	Engine *drkey.Engine
	// Keys fetches and caches remote level-1 keys (slow side).
	Keys *drkey.Store
	// Directory is the (possibly shared) SegR registry of Appendix C.
	Directory *Directory
	// Transport reaches remote CServs.
	Transport Transport
	// Clock returns the current Unix time in seconds.
	Clock func() uint32
	// Policy guards host EER requests at the source AS (default AllowAll).
	Policy Policy
	// DstApprove lets the destination AS/host veto an EER request (§3.3:
	// the destination "also has to explicitly accept"); default accepts.
	DstApprove func(req *EESetupReq) bool
	// RateLimit is the per-source-AS control-request budget per second
	// (default 1000; §5.3 "per-AS rate limiting").
	RateLimit int
	// CPlaneShards is the shard count of the CPlane engine that holds this
	// AS's admission state: SegR admission runs on per-shard admitters, EER
	// demand on per-SegR restree ledgers, and renewal waves through the
	// shard-major RenewBatch. The store keeps only SegR protocol state
	// (versions, tokens, idempotency keys). Must be a power of two; 0
	// selects 1.
	CPlaneShards int
	// CPlaneWorkers fans RenewBatch shard buckets across this many goroutines
	// (0 or 1 = inline); call Close on the Service when using more than one
	// worker.
	CPlaneWorkers int
	// Telemetry is the AS-wide registry the service's metrics and lifecycle
	// tracer attach to; a private registry is created when nil.
	Telemetry *telemetry.Registry
}

// Service is one AS's Colibri service.
type Service struct {
	ia    topology.IA
	as    *topology.AS
	topo  *topology.Topology
	split admission.TrafficSplit

	store    *reservation.Store
	transfer *admission.TransferSplit
	// cp is the sharded control-plane engine: SegR admission and EER demand
	// accounting run through it (see cplane_live.go), and the store carries
	// only protocol state.
	cp *CPlane
	// publishMu serializes publishEERDemand's read-then-write, so that
	// concurrent publishes cannot write in the opposite order of their
	// reads and leave an older, lower demand in the store's view.
	publishMu sync.Mutex

	secret  cryptoutil.Key
	engine  *drkey.Engine
	keys    *drkey.Store
	macPool sync.Pool // *cryptoutil.CBCMAC keyed by secret

	dir        *Directory
	transport  Transport
	clock      func() uint32
	policy     Policy
	dstApprove func(req *EESetupReq) bool
	rate       *RateLimiter
	renewLim   *renewLimiter
	metrics    Metrics
}

// New builds a Service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("cserv: Config.Clock is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = AllowAll{}
	}
	if cfg.DstApprove == nil {
		cfg.DstApprove = func(*EESetupReq) bool { return true }
	}
	if cfg.RateLimit == 0 {
		cfg.RateLimit = 1000
	}
	if cfg.Split == (admission.TrafficSplit{}) {
		cfg.Split = admission.DefaultSplit
	}
	cp, err := NewCPlane(CPlaneConfig{
		AS:      cfg.AS,
		Split:   cfg.Split,
		Shards:  cfg.CPlaneShards,
		Clock:   cfg.Clock,
		Workers: cfg.CPlaneWorkers,
	})
	if err != nil {
		panic(err)
	}
	s := &Service{
		ia:         cfg.AS.IA,
		as:         cfg.AS,
		topo:       cfg.Topo,
		split:      cfg.Split,
		store:      reservation.NewStore(cfg.AS.IA),
		cp:         cp,
		transfer:   admission.NewTransferSplit(),
		secret:     cfg.Secret,
		engine:     cfg.Engine,
		keys:       cfg.Keys,
		dir:        cfg.Directory,
		transport:  cfg.Transport,
		clock:      cfg.Clock,
		policy:     cfg.Policy,
		dstApprove: cfg.DstApprove,
		rate:       NewRateLimiter(cfg.RateLimit),
		renewLim:   newRenewLimiter(),
	}
	s.macPool.New = func() any { return cryptoutil.MustCBCMAC(s.secret) }
	s.metrics.init("cserv "+cfg.AS.IA.String(), cfg.Telemetry)
	// An expired EER's charge leaves the CPlane's ledgers; publish the new
	// demand into the store's view, and return a transfer-AS record's charge
	// to the §4.7 transfer-split accounting, or dead demand accumulates until
	// the fair-share cap refuses every re-admission (the renewal-storm
	// recovery path found this at 10⁶ flows). Only up→core records ever
	// admitted through the split; the core+down pair at the far transfer AS
	// carries no split charge.
	cp.OnExpire(func(seg, seg2 reservation.ID, bwKbps uint64) {
		s.publishEERDemand(seg)
		if seg2.IsZero() {
			return
		}
		s.publishEERDemand(seg2)
		up, err := s.store.GetSegR(seg)
		if err != nil || up.SegType != segment.Up {
			return
		}
		core, err := s.store.GetSegR(seg2)
		if err != nil || core.SegType != segment.Core {
			return
		}
		s.transfer.Release(core.ID, up.ID, bwKbps, bwKbps)
	})
	return s
}

// IA returns the service's AS.
func (s *Service) IA() topology.IA { return s.ia }

// Store exposes the reservation database (border routers and the gateway of
// the same AS read it; tests inspect it).
func (s *Service) Store() *reservation.Store { return s.store }

// CPlane exposes the sharded control-plane engine holding the AS's
// admission state.
func (s *Service) CPlane() *CPlane { return s.cp }

// Close releases background resources (the CPlane's batch workers); no
// request may be in flight.
func (s *Service) Close() { s.cp.Close() }

// publishEERDemand copies the CPlane's current EER demand on a SegR into the
// store's read-only AllocatedEERKbps view and returns it. The CPlane stays
// the only writer of EER demand; the view serves the activation
// over-allocation guard and external audits.
func (s *Service) publishEERDemand(seg reservation.ID) uint64 {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	m, _ := s.cp.SegDemandMax(seg)
	s.store.SetAllocatedEERKbps(seg, m)
	return m
}

// Secret returns the AS data-plane secret shared with the border routers.
func (s *Service) Secret() cryptoutil.Key { return s.secret }

// Metrics returns the service's control-plane counters.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Service-level errors.
var (
	ErrAuth        = errors.New("cserv: control-plane authentication failed")
	ErrRateLimited = errors.New("cserv: source AS rate-limited")
	ErrNotOnPath   = errors.New("cserv: this AS is not on the request path")
	ErrRefused     = errors.New("cserv: request refused")
)

// HandleMsg dispatches a marshaled control message from a remote CServ and
// returns the marshaled response. This is the Transport server side.
func (s *Service) HandleMsg(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	switch data[0] {
	case tagSegSetup, tagSegRenew:
		req, err := UnmarshalSegSetupReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		resp := s.processSegSetup(req, idx, accumFromReq(req))
		return resp.Marshal(), nil
	case tagSegActivate:
		req, err := UnmarshalSegActivateReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		resp := s.processSegActivate(req, idx)
		return resp.Marshal(), nil
	case tagEESetup, tagEERenew:
		req, err := UnmarshalEESetupReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		// As with accumFromReq: forwarders always set AccumKbps and zero is
		// a real accumulated grant, not "unset".
		accum := req.AccumKbps
		if accum > req.BwKbps {
			accum = req.BwKbps
		}
		resp := s.processEESetup(req, idx, accum)
		return resp.Marshal(), nil
	case tagEEBatchRenew:
		req, err := UnmarshalEEBatchRenewReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		return s.processEEBatchRenew(req, idx).Marshal(), nil
	case tagDownReq:
		req, err := UnmarshalDownSegReq(data)
		if err != nil {
			return nil, err
		}
		return s.handleDownReq(req).Marshal(), nil
	default:
		return nil, ErrBadTag
	}
}

func (s *Service) hopIndex(path []PathHop) (int, error) {
	for i, h := range path {
		if h.IA == s.ia {
			return i, nil
		}
	}
	return 0, ErrNotOnPath
}

// accumFromReq reads the accumulated grant forwarded by the previous hop.
// Forwarders always set AccumKbps, and zero is a real value (a renewal can
// legally be granted 0 kbps upstream), so it must not be read as "unset" —
// that would resurrect the full demand downstream of a zero grant. The
// value is clamped to the requested maximum for robustness.
func accumFromReq(req *SegSetupReq) uint64 {
	if req.AccumKbps > req.MaxKbps {
		return req.MaxKbps
	}
	return req.AccumKbps
}

// verifySourceMac checks the DRKey MAC for this AS: the source computed
// MAC_{K_{me→SrcAS}}(body), which we re-derive on the fly (§4.5).
func (s *Service) verifySourceMac(srcAS topology.IA, body []byte, macs [][cryptoutil.MACSize]byte, idx int) error {
	if idx >= len(macs) {
		return fmt.Errorf("%w: missing MAC for hop %d", ErrAuth, idx)
	}
	key, _ := s.engine.Level1(srcAS, s.clock())
	var want [cryptoutil.MACSize]byte
	cryptoutil.MustCMAC(key).SumInto(&want, body)
	if !cryptoutil.ConstantTimeEqual(want[:], macs[idx][:]) {
		return ErrAuth
	}
	return nil
}

// computeMacs builds the per-AS request MACs at the initiator, fetching
// K_{AS_i→me} from each on-path AS's key server (slow side, cached per
// epoch).
func (s *Service) computeMacs(path []PathHop, body []byte) ([][cryptoutil.MACSize]byte, error) {
	now := s.clock()
	macs := make([][cryptoutil.MACSize]byte, len(path))
	for i, h := range path {
		var key cryptoutil.Key
		if h.IA == s.ia {
			key, _ = s.engine.Level1(s.ia, now)
		} else {
			var err error
			key, err = s.keys.Get(h.IA, now)
			if err != nil {
				return nil, err
			}
		}
		cryptoutil.MustCMAC(key).SumInto(&macs[i], body)
	}
	return macs, nil
}

// segToken computes the Eq. (3) SegR token for this AS.
func (s *Service) segToken(res *packet.ResInfo, hf packet.HopField) [packet.HVFLen]byte {
	var input [packet.SegAuthLen]byte
	packet.SegAuthInput(&input, res, hf)
	mac := s.macPool.Get().(*cryptoutil.CBCMAC)
	var full [cryptoutil.MACSize]byte
	mac.SumInto(&full, input[:])
	s.macPool.Put(mac)
	var tok [packet.HVFLen]byte
	copy(tok[:], full[:packet.HVFLen])
	return tok
}

// hopAuth computes the Eq. (4) hop authenticator σ for this AS.
func (s *Service) hopAuth(res *packet.ResInfo, eer *packet.EERInfo, hf packet.HopField) cryptoutil.Key {
	var input [packet.EERAuthLen]byte
	packet.EERAuthInput(&input, res, eer, hf)
	mac := s.macPool.Get().(*cryptoutil.CBCMAC)
	var full [cryptoutil.MACSize]byte
	mac.SumInto(&full, input[:])
	s.macPool.Put(mac)
	return cryptoutil.Key(full)
}

// Tick advances housekeeping: expiry cleanup in the store, dropping the
// admission state of removed SegRs, and expiring lapsed EERs in the CPlane.
// Call it periodically (once per second suffices).
func (s *Service) Tick() {
	now := s.clock()
	for _, id := range s.store.Cleanup(now) {
		// DropSegR also tears down the EER charges riding on the SegR —
		// including transfer-AS records whose other segment survives, whose
		// published demand must follow.
		for _, other := range s.cp.DropSegR(id) {
			s.publishEERDemand(other)
		}
		s.transfer.DropCore(id)
		if s.dir != nil {
			s.dir.Unregister(id)
		}
	}
	s.cp.Tick()
	if s.dir != nil {
		s.dir.Expire(now)
	}
	s.rate.Tick(now)
	s.renewLim.Expire(now)
}
