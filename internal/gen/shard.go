package gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bigmath"
	"repro/internal/fault"
	"repro/internal/pipeline"
)

// Shard-claim work distribution. A distributed run splits stage work —
// first workload: the exhaustive verification sweeps — into (function,
// stage, shard) units, each an ordinary content-addressed artifact, so N
// processes sharing one store (typically over the remote backend) each
// compute a disjoint slice and any process can assemble the merged result
// bit-identically. Claims are tiny artifacts published next to the work
// units: before computing a unit, a worker publishes "shard k/n is
// computing this", and peers poll the unit artifact for a bounded grace
// window before computing it themselves. Claims are therefore an
// optimization against duplicate work, never a correctness dependency —
// unit artifacts are deterministic bytes, so a lost, stale or raced claim
// at worst makes two processes write the identical artifact.

// Shard identifies one process's slice of a distributed run: slice K of N
// (K in [0,N)). The zero value — and any N <= 1 — means "solo": no
// claims, no waiting, all units computed locally.
type Shard struct {
	K int
	N int
}

// Solo reports whether the shard spans the whole run.
func (s Shard) Solo() bool { return s.N <= 1 }

// Owner is the claim-owner token of this shard: distinct across the
// cooperating processes of one run by construction, and deterministic so
// reruns recognize their own claims.
func (s Shard) Owner() string { return fmt.Sprintf("shard-%d.%d", s.K, s.N) }

func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// Owns reports whether work unit j of a work list is assigned to this
// shard. It is the one ownership rule of every distributed step: units are
// dealt round-robin (unit j belongs to shard j mod N), so it distributes
// work lists of any length — the per-piece solve units, whose count
// follows the adaptive escalation, as well as the at-most-N verification
// slices of parallel.SplitRange, where it gives slice j to shard j.
func (s Shard) Owns(j int) bool { return s.Solo() || j%s.N == s.K }

// ParseShard parses a -shard flag value "k/n"; the empty string is the
// solo shard.
func ParseShard(v string) (Shard, error) {
	if v == "" {
		return Shard{}, nil
	}
	k, n, ok := strings.Cut(v, "/")
	if !ok {
		return Shard{}, fmt.Errorf("invalid -shard %q: must be k/n (e.g. 0/2)", v)
	}
	ki, err1 := strconv.Atoi(k)
	ni, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil || ni < 1 || ki < 0 || ki >= ni {
		return Shard{}, fmt.Errorf("invalid -shard %q: must be k/n with 0 <= k < n", v)
	}
	return Shard{K: ki, N: ni}, nil
}

// VerifyShardKey addresses one exhaustive-verification work unit: the
// pass-p mismatch sweep of level li, slice j of n, of fn under opt
// (defaults applied). The unit fingerprint extends the full options
// fingerprint with the unit coordinates, so each unit is its own
// content-addressed, resumable artifact.
func VerifyShardKey(fn bigmath.Func, opt Options, li, pass, j, n int) pipeline.Key {
	opt.defaults()
	return pipeline.Key{
		Func:  fn.String(),
		Stage: StageVerifyShard,
		Fingerprint: fmt.Sprintf("%s-L%d-p%d-%d.%d",
			opt.Fingerprint(), li, pass, j, n),
	}
}

// StageVerifyShard names the distributed-verification work-unit stage,
// as it appears in artifact keys and cache event logs.
const StageVerifyShard = "verify-shard"

// StageClaim names the claim stage. One claim artifact sits next to each
// work unit, addressed by the unit's own key components. The name is
// pinned in internal/pipeline so the evicting store can protect claims
// without importing this package.
const StageClaim = pipeline.StageClaim

// claimKey derives the claim artifact key of a work unit.
func claimKey(unit pipeline.Key) pipeline.Key {
	return pipeline.Key{
		Func:        unit.Func,
		Stage:       StageClaim,
		Fingerprint: unit.Stage + "-" + unit.Fingerprint,
	}
}

// ClaimInfo is the decoded claim artifact: the owner token of the shard
// computing the unit, plus a heartbeat stamp. Stamp is a monotonic
// sequence number the owner bumps while it computes (see RefreshClaim),
// NOT a wall-clock time — persisted artifacts must stay clock-free (the
// nondetflow contract), and a sequence avoids cross-machine clock skew.
// Liveness is therefore judged relatively: a poller that watches the same
// (Owner, Stamp) pair across several polls without the stamp advancing
// concludes the owner died and reclaims the unit.
type ClaimInfo struct {
	Owner string
	Stamp uint64
}

// ClaimCodec encodes a claim artifact. v2 added the heartbeat stamp; v1
// claims (owner only) fail the Unseal identity check and read as "no
// claim", which merely costs one duplicated unit during a mixed-version
// rollout — claims are dedup, never correctness.
var ClaimCodec = pipeline.Codec[ClaimInfo]{
	Name:    "store-claim",
	Version: 2,
	Encode: func(e *pipeline.Enc, c ClaimInfo) {
		e.Str(c.Owner)
		e.U64(c.Stamp)
	},
	Decode: func(d *pipeline.Dec) (ClaimInfo, error) {
		c := ClaimInfo{Owner: d.Str(), Stamp: d.U64()}
		if d.Err() == nil && c.Owner == "" {
			return ClaimInfo{}, fmt.Errorf("%w: empty claim owner", pipeline.ErrCorrupt)
		}
		return c, d.Err()
	},
}

// claim publishes shard's claim on unit, unless a peer already holds one:
// it returns true when this shard holds the claim afterwards (and should
// compute the unit), false when a peer's claim stands. Claims are
// last-writer-wins artifacts — a racing pair of processes may both see
// true — which is safe because the unit artifacts they then publish are
// byte-identical. Injection: SiteClaimStale makes an existing peer claim
// read back stale, so the caller reclaims and computes the unit itself.
func claim(st pipeline.Store, unit pipeline.Key, shard Shard, faults *fault.Plan) bool {
	if st == nil || shard.Solo() {
		return true
	}
	if c, ok := claimedBy(st, unit, faults); ok && c.Owner != shard.Owner() {
		return false
	}
	ck := claimKey(unit)
	if err := st.Put(ck, ClaimCodec.Name, ClaimCodec.Version, sealClaim(ClaimInfo{Owner: shard.Owner()})); err != nil {
		// A claim that cannot be written is only lost dedup: compute.
		return true
	}
	c, ok := claimedBy(st, unit, faults)
	return !ok || c.Owner == shard.Owner()
}

// RefreshClaim republishes shard's claim on unit with the given heartbeat
// stamp. The computing process calls it periodically while a unit is in
// flight so pollers see the stamp advance; a write failure is ignored —
// at worst a poller declares this process dead and duplicates the unit's
// byte-identical work.
func RefreshClaim(st pipeline.Store, unit pipeline.Key, shard Shard, stamp uint64) {
	if st == nil || shard.Solo() {
		return
	}
	ck := claimKey(unit)
	_ = st.Put(ck, ClaimCodec.Name, ClaimCodec.Version, sealClaim(ClaimInfo{Owner: shard.Owner(), Stamp: stamp}))
}

// claimedBy returns the claim on unit, if a readable, well-formed claim
// exists. Injection: SiteClaimStale reports any existing claim as
// unreadable, which callers treat as "no live peer".
func claimedBy(st pipeline.Store, unit pipeline.Key, faults *fault.Plan) (ClaimInfo, bool) {
	if st == nil {
		return ClaimInfo{}, false
	}
	data, found := st.Get(claimKey(unit), ClaimCodec.Name, ClaimCodec.Version)
	if !found {
		return ClaimInfo{}, false
	}
	if faults.Should(fault.SiteClaimStale) {
		return ClaimInfo{}, false
	}
	payload, err := pipeline.Unseal(data, ClaimCodec.Name, ClaimCodec.Version)
	if err != nil {
		return ClaimInfo{}, false
	}
	d := pipeline.NewDec(payload)
	c, derr := ClaimCodec.Decode(d)
	if derr != nil || d.Done() != nil {
		return ClaimInfo{}, false
	}
	return c, true
}

// sealClaim frames a claim artifact for storage.
func sealClaim(c ClaimInfo) []byte {
	var e pipeline.Enc
	ClaimCodec.Encode(&e, c)
	return pipeline.Seal(ClaimCodec.Name, ClaimCodec.Version, e.Bytes())
}
