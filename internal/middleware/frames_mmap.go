//go:build linux && !race

package middleware

import "syscall"

// mapChunk maps n bytes of anonymous memory outside the Go heap; the pages
// become resident as they are first touched. A failed map falls back to the
// heap, so a node short of address space still runs.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}
