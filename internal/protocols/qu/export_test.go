package qu

// AttDigest exposes the attestation digest to the external tests, which
// sign forged repair evidence with it.
var AttDigest = attDigest
