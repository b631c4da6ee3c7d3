package oram

// SealVersionEvictions exports the seal-version margin to the engine
// tests in package oram_test.
const SealVersionEvictions = sealVersionEvictions
