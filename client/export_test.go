package client

// KeptBound exposes how many terminal statuses a client keeps for Result.
const KeptBound = keptBound
