package core

import (
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Authenticate produces the authentication material for a broadcast
// message digest under the environment's scheme (dimension E3): a
// signature under SchemeSig/SchemeThreshold, or an authenticator vector
// (one MAC per replica, indexed by replica ID) under SchemeMAC.
func Authenticate(env Env, d types.Digest) (sig []byte, vec [][]byte) {
	if env.Scheme() == crypto.SchemeMAC {
		return nil, env.Signer().AuthVector(d, env.Replicas())
	}
	return env.Signer().Sign(d), nil
}

// VerifyAuth checks the authentication material attached to a message
// from `from` over digest d, under the environment's scheme.
func VerifyAuth(env Env, from types.NodeID, d types.Digest, sig []byte, vec [][]byte) bool {
	if env.Scheme() == crypto.SchemeMAC {
		idx := int(env.ID())
		if idx >= len(vec) || vec[idx] == nil {
			return false
		}
		return env.Verifier().VerifyMAC(from, env.ID(), d, vec[idx])
	}
	return env.Verifier().VerifySig(from, d, sig)
}

// AuthenticateReply stamps rp with the replying replica's identity and
// authenticates it under the environment's scheme, like every other
// message: one MAC to the client under SchemeMAC, a signature under
// SchemeSig/SchemeThreshold. The authenticator goes in rp.Sig. Both
// schemes are deterministic, so stamping a reply that was already sent
// (chain's retransmission) rewrites identical bytes.
func AuthenticateReply(env Env, rp *types.Reply) {
	rp.Replica = env.ID()
	if env.Scheme() == crypto.SchemeMAC {
		rp.Sig = env.Signer().MAC(rp.Client, rp.Digest())
		return
	}
	rp.Sig = env.Signer().Sign(rp.Digest())
}

// VerifyReply checks a reply's authenticator against the replica it
// names, under the client's deployment scheme: a MAC from rp.Replica to
// this client, or rp.Replica's signature. A MAC convinces only this
// client; a signed reply is evidence a third party can check.
func VerifyReply(env ClientEnv, rp *types.Reply) bool {
	if env.Config().Scheme == crypto.SchemeMAC {
		return env.Verifier().VerifyMAC(rp.Replica, env.ID(), rp.Digest(), rp.Sig)
	}
	return env.Verifier().VerifySig(rp.Replica, rp.Digest(), rp.Sig)
}

// AuthenticateRequest authenticates a client's request under its
// deployment's scheme, like every other message: the client's signature
// under SchemeSig/SchemeThreshold, or under SchemeMAC its authenticator to
// the replicas, one MAC per replica indexed by replica ID
// (Signer.AuthTags over Replicas). Either goes in req.Sig; the digest
// covers neither.
func AuthenticateRequest(env ClientEnv, req *types.Request) {
	if env.Config().Scheme == crypto.SchemeMAC {
		req.Sig = env.Signer().AuthTags(req.Digest(), env.Replicas())
		return
	}
	req.Sig = env.Signer().Sign(req.Digest())
}

// VerifyRequest checks a request's authenticator against the client it
// names: under SchemeMAC only this replica's own entry of the vector,
// which must hold one entry per replica, and otherwise the client's
// signature. A replica holds no other replica's key to a client, so
// under either scheme it cannot forge a request its peers accept.
func VerifyRequest(env Env, req *types.Request) bool {
	if env.Scheme() == crypto.SchemeMAC {
		if len(req.Sig) != env.N()*crypto.MACSize {
			return false
		}
		at := int(env.ID()) * crypto.MACSize
		return env.Verifier().VerifyMAC(req.Client, env.ID(), req.Digest(), req.Sig[at:at+crypto.MACSize])
	}
	return env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig)
}
