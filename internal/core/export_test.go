package core

// PipelineDepth exposes the leader's window to the external tests.
const PipelineDepth = pipelineDepth
