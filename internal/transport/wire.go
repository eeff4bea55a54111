package transport

import (
	"encoding/gob"

	"bftkit/internal/core"
	"bftkit/internal/protocols/chainrepl"
	"bftkit/internal/protocols/cheapbft"
	"bftkit/internal/protocols/fab"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/protocols/kauri"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/poe"
	"bftkit/internal/protocols/prime"
	"bftkit/internal/protocols/qu"
	"bftkit/internal/protocols/raftlite"
	"bftkit/internal/protocols/sbft"
	"bftkit/internal/protocols/tendermint"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

// wireMessages lists every concrete message type that may cross the
// wire. init registers them all with gob so Envelope's interface field
// round-trips; wire_test.go iterates the same list to prove each kind
// survives an encode/decode cycle.
var wireMessages = []types.Message{
	// core
	&core.RequestMsg{}, &core.ReplyMsg{}, &core.ForwardMsg{},
	&core.CheckpointMsg{}, &core.FetchStateMsg{}, &core.StateMsg{},
	&core.ViewChangeMsg{}, &core.NewViewMsg{}, // the eight stable-leader protocols share them
	// pbft
	&pbft.PrePrepareMsg{}, &pbft.PrepareMsg{}, &pbft.CommitMsg{},
	&pbft.FetchCommittedMsg{}, &pbft.CommittedMsg{},
	// tendermint
	&tendermint.ProposalMsg{}, &tendermint.VoteMsg{}, &tendermint.FetchProposalMsg{},
	&tendermint.FetchDecisionMsg{}, &tendermint.DecisionMsg{},
	// hotstuff
	&hotstuff.ProposalMsg{}, &hotstuff.VoteMsg{}, &hotstuff.TimeoutMsg{},
	&hotstuff.QCMsg{}, &hotstuff.FetchBlockMsg{}, &hotstuff.BlockMsg{},
	// sbft
	&sbft.PrePrepareMsg{}, &sbft.ShareMsg{}, &sbft.ProofMsg{},
	// zyzzyva
	&zyzzyva.OrderReqMsg{}, &zyzzyva.CommitMsg{}, &zyzzyva.LocalCommitMsg{},
	&zyzzyva.CheckpointMsg{},
	// poe
	&poe.ProposeMsg{}, &poe.ShareMsg{}, &poe.CertifyMsg{},
	&poe.CheckpointMsg{},
	// cheapbft
	&cheapbft.ProposeMsg{}, &cheapbft.VoteMsg{}, &cheapbft.UpdateMsg{},
	// fab
	&fab.ProposeMsg{}, &fab.AcceptMsg{},
	// qu
	&qu.QueryMsg{}, &qu.QueryRespMsg{}, &qu.WriteMsg{}, &qu.WriteRespMsg{}, &qu.ResolveMsg{},
	// prime
	&prime.PORequestMsg{}, &prime.POAckMsg{},
	// themis
	&themis.ReportMsg{}, &themis.ProposalMsg{}, &themis.VoteMsg{},
	// kauri
	&kauri.ProposalMsg{}, &kauri.AggrMsg{}, &kauri.CertMsg{},
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
