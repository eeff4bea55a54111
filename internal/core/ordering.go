package core

import (
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Stage names one voting round of the ordering stage and the certificate
// that closes it. It travels as an integer: the wire decoder allocates for
// every string it reads, and a stage rides on every vote. The zero Stage
// is StagePrepare.
type Stage uint8

// The voting rounds of the protocols built on Slots.
const (
	// StagePrepare: PBFT's and Themis's prepares, Kauri's first tree
	// round, SBFT's slow-path prepare certificate.
	StagePrepare Stage = iota
	// StageCommit: PBFT's and Themis's commits, CheapBFT's active-set
	// votes, Kauri's second tree round, SBFT's slow-path commit round.
	StageCommit
	// StageSign: SBFT's first-round shares.
	StageSign
	// StageFastCommit: SBFT's certificate over all n sign shares.
	StageFastCommit
	// StageShare: PoE's shares and their certificate.
	StageShare
	// StageAccept: FaB's all-to-all accepts.
	StageAccept

	numStages
)

// voteKinds and certKinds are the wire kinds of a stage's vote and
// certificate; the last entry is the kind of a stage outside the enum,
// which only a faulty peer sends and Slots refuses.
var (
	voteKinds = [numStages + 1]string{"PREPARE", "COMMIT", "SIGN", "FAST-COMMIT", "SHARE", "ACCEPT", "VOTE-BAD-STAGE"}
	certKinds = [numStages + 1]string{"PREPARE-CERT", "COMMIT-CERT", "SIGN-CERT", "FAST-COMMIT-CERT", "SHARE-CERT", "ACCEPT-CERT", "CERT-BAD-STAGE"}
)

// VoteDigest is what a replica signs to vote for digest at stage of (view,
// seq), and so what every certificate of the ordering stage is over. The
// voter is not hashed: the key that signs binds it.
func VoteDigest(stage Stage, view types.View, seq types.SeqNum, digest types.Digest) types.Digest {
	var h types.Hasher
	return h.Str("vote").U64(uint64(stage)).U64(uint64(view)).U64(uint64(seq)).Digest(digest).Sum()
}

// ProposeMsg assigns Batch, whose digest is Digest, to Seq in View: PBFT's
// pre-prepare, Zyzzyva's order-request, every other protocol's proposal,
// and the proposal a re-issued slot of a new view stands for. Evidence is
// what justifies the batch where the protocol has any (Themis's signed
// receive-order reports). Leader, the view's leader, signed it: Sig, or in
// MAC mode the authenticator vector Auth. A relay (Kauri's tree) forwards
// it unchanged.
type ProposeMsg struct {
	View     types.View
	Seq      types.SeqNum
	Digest   types.Digest
	Batch    *types.Batch
	Evidence []Evidence
	Leader   types.NodeID
	Sig      []byte
	Auth     [][]byte
}

// NewProposal returns this replica's authenticated proposal of batch at
// (view, seq).
func NewProposal(env Env, view types.View, seq types.SeqNum, batch *types.Batch, evidence ...Evidence) *ProposeMsg {
	m := &ProposeMsg{View: view, Seq: seq, Digest: batch.Digest(), Batch: batch, Evidence: evidence, Leader: env.ID()}
	m.Sig, m.Auth = Authenticate(env, m.SigDigest())
	return m
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content: the assignment and the evidence. The
// batch is bound through Digest, which Verify checks before the signature.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	hashEvidence(&h, m.Evidence)
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the leader's signature,
// whoever relayed the proposal, and the client signature of every signed
// request in the batch, which a backup checks before it accepts the batch.
func (m *ProposeMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	dst = append(dst, crypto.SigClaim{Signer: m.Leader, Digest: m.SigDigest(), Sig: m.Sig})
	if m.Batch != nil {
		for _, r := range m.Batch.Requests {
			dst = appendRequestClaim(dst, r)
		}
	}
	return dst
}

// Verify reports whether m is its view's leader's validly authenticated
// proposal of the batch its digest names. Signer and batch are checked
// before the signature.
func (m *ProposeMsg) Verify(env Env) bool {
	return m.Leader == env.Config().LeaderOf(m.View) && m.Batch.Digest() == m.Digest &&
		VerifyAuth(env, m.Leader, m.SigDigest(), m.Sig, m.Auth)
}

// VoteMsg is Replica's vote at Stage for Digest at (View, Seq): a prepare
// or commit, an SBFT or PoE share, a FaB accept. Sig is over VoteDigest;
// in MAC mode Auth is the voter's authenticator vector instead. A vote
// exposes no signature claims to the inbound lane: Slots verifies it on
// demand, and only while it can still change what the stage runner does.
type VoteMsg struct {
	Stage   Stage
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
	Auth    [][]byte
}

// NewVote returns this replica's authenticated vote at stage for digest at
// (view, seq).
func NewVote(env Env, stage Stage, view types.View, seq types.SeqNum, digest types.Digest) *VoteMsg {
	m := &VoteMsg{Stage: stage, View: view, Seq: seq, Digest: digest, Replica: env.ID()}
	m.Sig, m.Auth = Authenticate(env, m.SigDigest())
	return m
}

// Kind implements types.Message.
func (m *VoteMsg) Kind() string { return voteKinds[min(m.Stage, numStages)] }

// Slot implements obsv.Slotted.
func (m *VoteMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *VoteMsg) SigDigest() types.Digest { return VoteDigest(m.Stage, m.View, m.Seq, m.Digest) }

// Verify reports whether m is from's validly authenticated vote: a vote
// naming another voter than its sender is refused before the signature
// is checked.
func (m *VoteMsg) Verify(env Env, from types.NodeID) bool {
	return m.Replica == from && VerifyAuth(env, from, m.SigDigest(), m.Sig, m.Auth)
}

// CertMsg broadcasts the certificate that closes Stage at (View, Seq) for
// Digest — SBFT's prepare, commit and fast-commit proofs, PoE's certify,
// Kauri's certificates flowing down the tree — signed by Leader, the view's
// leader, which collected it. A fast-path stage's certificates are
// announced as StagePrepare and StageFastCommit (StageSpec.FastWait).
type CertMsg struct {
	Stage  Stage
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Leader types.NodeID
	Sig    []byte
}

// Kind implements types.Message.
func (m *CertMsg) Kind() string { return certKinds[min(m.Stage, numStages)] }

// Slot implements obsv.Slotted.
func (m *CertMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements obsv.Sizer: under the threshold model the
// certificate is one constant-size signature.
func (m *CertMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content, certificate included.
func (m *CertMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cert").U64(uint64(m.Stage)).U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	m.Cert.HashInto(&h)
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the leader's signature, whoever
// relayed the certificate.
func (m *CertMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: m.Leader, Digest: m.SigDigest(), Sig: m.Sig})
}

// Verify reports whether m carries its view's leader's valid signature.
// The certificate itself is the caller's to check (VerifyCert): which
// votes it holds, and how many, is the protocol's.
func (m *CertMsg) Verify(env Env) bool {
	return m.Leader == env.Config().LeaderOf(m.View) && env.Verifier().VerifySig(m.Leader, m.SigDigest(), m.Sig)
}

// AggrMsg carries a subtree's votes at Stage up a Tree topology's tree
// (Kauri's), each signature over VoteDigest. Unlike a CertMsg it is
// partial and unsigned: each inner node adds its subtree's votes.
type AggrMsg struct {
	Stage   Stage
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Signers []types.NodeID
	Sigs    [][]byte
}

// Kind implements types.Message.
func (m *AggrMsg) Kind() string {
	if m.Stage == StageCommit {
		return "KAURI-AGGR-commit"
	}
	return "KAURI-AGGR-prepare"
}

// Slot implements obsv.Slotted.
func (m *AggrMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// VerifyCert reports whether cert holds quorum valid signatures from
// distinct replicas over the stage vote for digest at (view, seq).
func VerifyCert(env Env, cert *crypto.Certificate, quorum int, stage Stage, view types.View, seq types.SeqNum, digest types.Digest) bool {
	return cert != nil && cert.Digest == VoteDigest(stage, view, seq, digest) && cert.Verify(env.Verifier(), quorum) == nil
}

func hashEvidence(h *types.Hasher, evidence []Evidence) {
	h.U64(uint64(len(evidence)))
	for _, e := range evidence {
		if e != nil { // the wire can carry a nil interface value
			h.Digest(e.SigDigest())
		}
	}
}
