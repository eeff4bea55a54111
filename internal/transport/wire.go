package transport

import (
	"encoding/gob"

	"bftkit/internal/core"
	"bftkit/internal/protocols/chainrepl"
	"bftkit/internal/protocols/cheapbft"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/protocols/kauri"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/prime"
	"bftkit/internal/protocols/qu"
	"bftkit/internal/protocols/raftlite"
	"bftkit/internal/protocols/tendermint"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"

	// Every registered protocol is linked wherever the transport is, so a
	// node can run any of them; these three send only core's messages.
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/sbft"
)

// wireMessages lists every concrete message type that may cross the
// wire. init registers them all with gob so Envelope's interface field
// round-trips; wire_test.go iterates the same list to prove each kind
// survives an encode/decode cycle.
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
	// kauri
	&kauri.AggrMsg{},
	// chain
	&chainrepl.ChainMsg{}, &chainrepl.CommitNoticeMsg{}, &chainrepl.PanicMsg{},
	&chainrepl.ReconfigMsg{}, &chainrepl.FetchChainMsg{}, &chainrepl.ChainEntriesMsg{},
	// raftlite
	&raftlite.AppendEntriesMsg{}, &raftlite.AppendRespMsg{},
	&raftlite.RequestVoteMsg{}, &raftlite.VoteMsg{},
}

func init() {
	for _, m := range wireMessages {
		gob.Register(m)
	}
}
