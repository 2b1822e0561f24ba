package middleware

import "sync"

// frameSize is the size of one arena frame: the default block size, so
// every block of a default-geometry file fits one frame.
const frameSize = 8 << 10

// chunkFrames is the number of frames one arena chunk holds (2 MB).
const chunkFrames = 256

// frameArena hands out the page-aligned frames every cached block lives in
// (see payloadBuf). Its chunks come from mapChunk: anonymous memory outside
// the Go heap on linux without the race detector, so the collector neither
// scans the cache nor paces its heap goal by it; heap memory on every other
// build, where the race detector keeps seeing the bytes. A chunk is mapped
// when no frame is free and is never unmapped, so a slice that outlives its
// frame's release can never fault. Free frames sit on one LIFO list: the
// next frame handed out is the one whose pages were touched last.
//
// The arena holds only what was released to it. A frame whose payloadBuf
// is never released is a leak, not garbage: nothing collects it.
type frameArena struct {
	mu    sync.Mutex
	free  []*[]byte
	inUse int
}

// frames is the process's arena, shared by its nodes as the payload pools
// are.
var frames frameArena

// get returns a free frame of frameSize bytes, mapping a chunk when none is
// left. Its bytes are whatever the last user left there.
func (a *frameArena) get() *[]byte {
	a.mu.Lock()
	if len(a.free) == 0 {
		a.grow()
	}
	p := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.inUse++
	a.mu.Unlock()
	return p
}

// put returns a frame get handed out. The caller must hold no alias of it.
func (a *frameArena) put(p *[]byte) {
	a.mu.Lock()
	a.free = append(a.free, p)
	a.inUse--
	a.mu.Unlock()
}

// used reports how many frames are handed out and not yet returned.
func (a *frameArena) used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// grow maps one chunk and pushes its frames, the first on top. Callers
// hold a.mu.
func (a *frameArena) grow() {
	chunk := mapChunk(chunkFrames * frameSize)
	hdrs := make([][]byte, chunkFrames)
	for i := chunkFrames - 1; i >= 0; i-- {
		// The capacity ends at the frame, so no append can reach the next.
		hdrs[i] = chunk[i*frameSize : (i+1)*frameSize : (i+1)*frameSize]
		a.free = append(a.free, &hdrs[i])
	}
}
