package rpc

// callQueue is an endpoint's FIFO of accepted calls, by value in a ring
// that is allocated on first use and doubles when full, so a steady
// arrival rate allocates nothing and a drained backlog is not carried
// along. A vacated slot is cleared: a request's args are a view of its
// call's whole wire image, 8 KiB+ for a WRITE, and a stale slot would pin
// it until the ring came round again.
type callQueue struct {
	buf  []request // len is zero or a power of two
	head int       // index in buf of the oldest call
	n    int       // calls queued
}

// at returns the slot of the i-th oldest call.
func (q *callQueue) at(i int) *request {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *callQueue) push(r request) {
	if q.n == len(q.buf) {
		buf := make([]request, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.n++
	*q.at(q.n - 1) = r
}

// take removes and returns the i-th oldest call, keeping the others in
// order: the i calls ahead of it each move back one slot. i is 0 except
// when a finishing process takes the first waiting call from behind
// handed ones (see Endpoint.serve), of which there are never many.
func (q *callQueue) take(i int) request {
	r := *q.at(i)
	for ; i > 0; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(0) = request{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// truncate drops every call behind the first keep.
func (q *callQueue) truncate(keep int) {
	for q.n > keep {
		q.n--
		*q.at(q.n) = request{}
	}
}
