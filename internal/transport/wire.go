package transport

import (
	"encoding/gob"

	"bftkit/internal/core"
	"bftkit/internal/protocols/chainrepl"
	"bftkit/internal/protocols/cheapbft"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/prime"
	"bftkit/internal/protocols/qu"
	"bftkit/internal/protocols/raftlite"
	"bftkit/internal/protocols/tendermint"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
	"bftkit/internal/wire"

	// Every registered protocol is linked wherever the transport is, so a
	// node can run any of them; these four send only core's messages.
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/sbft"
)

// wireMessages lists every concrete message type that may cross the
// wire, in kind-tag order: a message's tag is its position here plus one
// (0 is a nil message), so the list only ever grows at the end. init
// registers it with the codec; wire_test.go iterates the same list to
// prove each kind survives an encode/decode cycle.
var wireMessages = []types.Message{
	// core
	&core.RequestMsg{}, &core.ReplyMsg{}, &core.ForwardMsg{},
	&core.CheckpointMsg{}, &core.FetchStateMsg{}, &core.StateMsg{},
	// the ordering and view-change messages of the eight stable-leader protocols
	&core.ProposeMsg{}, &core.VoteMsg{}, &core.CertMsg{},
	&core.ViewChangeMsg{}, &core.NewViewMsg{},
	// pbft
	&pbft.FetchCommittedMsg{}, &pbft.CommittedMsg{},
	// tendermint
	&tendermint.ProposalMsg{}, &tendermint.VoteMsg{}, &tendermint.FetchProposalMsg{},
	&tendermint.FetchDecisionMsg{}, &tendermint.DecisionMsg{},
	// hotstuff
	&hotstuff.ProposalMsg{}, &hotstuff.VoteMsg{}, &hotstuff.TimeoutMsg{},
	&hotstuff.QCMsg{}, &hotstuff.FetchBlockMsg{}, &hotstuff.BlockMsg{},
	// zyzzyva
	&zyzzyva.CommitMsg{}, &zyzzyva.LocalCommitMsg{},
	// cheapbft
	&cheapbft.UpdateMsg{},
	// qu
	&qu.QueryMsg{}, &qu.QueryRespMsg{}, &qu.WriteMsg{}, &qu.WriteRespMsg{}, &qu.ResolveMsg{},
	// prime
	&prime.PORequestMsg{}, &prime.POAckMsg{},
	// themis
	&themis.ReportMsg{},
	// kauri: its up-tree aggregates are core.AggrMsg, at this tag
	&core.AggrMsg{},
	// chain
	&chainrepl.ChainMsg{}, &chainrepl.CommitNoticeMsg{}, &chainrepl.PanicMsg{},
	&chainrepl.ReconfigMsg{}, &chainrepl.FetchChainMsg{}, &chainrepl.ChainEntriesMsg{},
	// raftlite
	&raftlite.AppendEntriesMsg{}, &raftlite.AppendRespMsg{},
	&raftlite.RequestVoteMsg{}, &raftlite.VoteMsg{},
}

// Envelope is one message with its sender, as gob encodes it. The
// transport does not use it: the wire codec frames sender and message
// itself. It and the gob registration below remain only because the
// benchmark's micro-suite still prices gob encoding beside the codec.
type Envelope struct {
	From types.NodeID
	Msg  types.Message
}

func init() {
	wire.Register(wireMessages...)
	for _, m := range wireMessages {
		gob.Register(m)
	}
}
