package mem

// fifo is a queue popped by head index. Once the head passes half the slice
// the live tail moves to the front, so a pop never copies the whole queue
// and the backing array is bounded by the longest queue, not by the longest
// stretch in which the queue never drained.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }
func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	f.head++
	if 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:]) // drop what the popped and moved slots still reference
		f.buf, f.head = f.buf[:n], 0
	}
	return v
}

// reset empties the queue and keeps its capacity.
func (f *fifo[T]) reset() {
	clear(f.buf)
	f.buf, f.head = f.buf[:0], 0
}
