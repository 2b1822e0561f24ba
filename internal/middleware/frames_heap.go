//go:build !linux || race

package middleware

// mapChunk takes n bytes from the Go heap. Every build but linux without
// the race detector uses it: the race detector checks only memory inside
// the Go heap, so the canaries that catch a write into a pinned block
// (TestPinnedReadRaceCanary, TestGetBlockMutationCanary) need cached bytes
// there.
func mapChunk(n int) []byte { return make([]byte, n) }
