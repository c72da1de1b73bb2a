package nla

// Workspace is a bump-allocated scratch arena. Every tile kernel declares
// its scratch requirement up front (kernels.ScratchSize) and checks the
// memory out of a caller-owned Workspace instead of allocating, following
// the `*_scratch` convention of faer's in-place decompositions: the caller
// owns the memory, the kernel only borrows it.
//
// The intended topology is one Workspace per executor worker: the scheduler
// guarantees a worker runs one task at a time, so a task may use the whole
// arena and release it before the next task starts. A Workspace must not be
// shared between concurrently running tasks.
//
// Checkout is stack-like: Mark records the current level, Scratch and
// ScratchVec push, Release pops back to a mark. Memory is handed out
// UNINITIALIZED — callers must write before they read (NewMatrix, by
// contrast, zeroes). If a checkout exceeds the arena's capacity the buffer
// grows (this allocates); a warm workspace sized via kernels.ScratchSize
// never grows, which is what makes the steady state of the executors
// allocation-free.
//
// A Workspace holds a task's scratch, which dies when the task returns.
// Memory that lives as long as a whole job — its tiles and T factors — is
// carved from an Arena instead, whose chunks the next job reuses.
type Workspace struct {
	// Blocking selects the cache-block sizes GemmWS uses when packing
	// panels out of this workspace. The zero value means defaults.
	Blocking Blocking

	buf  []float64
	off  int
	mats []*Matrix
	used int

	grows int
}

// NewWorkspace returns a workspace with capacity for elems float64s.
func NewWorkspace(elems int) *Workspace {
	if elems < 0 {
		elems = 0
	}
	return &Workspace{buf: make([]float64, elems)}
}

// WorkspaceMark is a checkout level returned by Mark and restored by
// Release.
type WorkspaceMark struct {
	off, used int
}

// Mark records the current checkout level.
func (w *Workspace) Mark() WorkspaceMark { return WorkspaceMark{off: w.off, used: w.used} }

// Release pops every checkout made since mark was taken. The released
// matrices and slices must no longer be used.
func (w *Workspace) Release(mark WorkspaceMark) { w.off, w.used = mark.off, mark.used }

// Reset releases every checkout.
func (w *Workspace) Reset() { w.off, w.used = 0, 0 }

// Cap returns the arena capacity in float64 elements.
func (w *Workspace) Cap() int { return len(w.buf) }

// Grows returns how many times the arena had to grow (0 for a correctly
// pre-sized workspace after warm-up).
func (w *Workspace) Grows() int { return w.grows }

// EnsureCap grows the arena to at least elems float64s, keeping it
// otherwise untouched. Shared-pool workers call it between tasks from
// differently sized graphs — it must not be called while checkouts are
// outstanding. Deliberate elastic resizing is not counted by Grows.
func (w *Workspace) EnsureCap(elems int) {
	if elems > len(w.buf) {
		w.buf = make([]float64, elems)
	}
}

// ScratchVec checks out an uninitialized length-n slice.
func (w *Workspace) ScratchVec(n int) []float64 {
	if w.off+n > len(w.buf) {
		w.grow(n)
	}
	s := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// Scratch checks out an uninitialized r×c matrix with LD == max(r, 1).
func (w *Workspace) Scratch(r, c int) *Matrix {
	ld := r
	if ld < 1 {
		ld = 1
	}
	data := w.ScratchVec(ld * c)
	var m *Matrix
	if w.used < len(w.mats) {
		m = w.mats[w.used]
	} else {
		m = new(Matrix)
		w.mats = append(w.mats, m)
	}
	w.used++
	*m = Matrix{Rows: r, Cols: c, LD: ld, Data: data}
	return m
}

// grow replaces the backing buffer with a larger one. Outstanding
// checkouts keep their (old) memory, so views stay valid; only the level
// accounting moves to the new buffer.
func (w *Workspace) grow(n int) {
	newCap := 2 * len(w.buf)
	if newCap < w.off+n {
		newCap = w.off + n
	}
	if newCap < 1024 {
		newCap = 1024
	}
	w.buf = make([]float64, newCap)
	w.grows++
}

// ensureWorkspace returns ws, or a fresh throwaway workspace when ws is
// nil — the fallback path for callers that do not manage scratch.
func ensureWorkspace(ws *Workspace) *Workspace {
	if ws == nil {
		return NewWorkspace(0)
	}
	return ws
}
