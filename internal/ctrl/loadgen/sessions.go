package loadgen

// sessionTable holds the campaign's sessions by value, indexed by ID.
// Session IDs are issued consecutively from zero, so the table is a
// window of slots: slot i holds session first+i, from the oldest open
// session to the newest ID issued. A closed session leaves its slot as
// a gap (phaseClosed); closed slots at the front are trimmed, so the
// window always starts at the oldest open session. A lookup is an
// index, a session costs no allocation of its own, and walking the
// window visits the open sessions in ID order.
//
// The pointer rule: a *session from add or get points into the
// window, and add may move it. No *session outlives a call that can
// add a session. Only a fresh arrival adds one, so a handler may hold
// its session for the length of its event, and nothing holds one
// across events.
type sessionTable struct {
	buf   []session // buf[head:] is the window
	head  int
	first int // ID of the window's first slot
	open  int // open sessions in the window
}

// moveOnAdd makes every add move the window to a fresh array, as a
// growing append does now and then. Only tests set it, to show that no
// *session is kept across an add.
var moveOnAdd bool

// next returns the ID the next add issues.
func (t *sessionTable) next() int { return t.first + len(t.buf) - t.head }

// window returns the slots, the first one holding session t.first.
// Closed slots read phaseClosed.
func (t *sessionTable) window() []session { return t.buf[t.head:] }

// add stores s as a new open session and returns its ID and a pointer
// to its slot.
func (t *sessionTable) add(s session) (int, *session) {
	switch {
	case moveOnAdd:
		t.buf, t.head = append(make([]session, 0, len(t.buf)-t.head+1), t.buf[t.head:]...), 0
	case len(t.buf) == cap(t.buf) && 2*t.head >= len(t.buf):
		// At least half the array is trimmed front: slide the window
		// down instead of growing.
		t.buf, t.head = t.buf[:copy(t.buf, t.buf[t.head:])], 0
	}
	id := t.next()
	t.buf = append(t.buf, s)
	t.open++
	return id, &t.buf[len(t.buf)-1]
}

// get returns the open session with the given ID.
func (t *sessionTable) get(id int) (*session, bool) {
	w := t.window()
	i := id - t.first
	if i < 0 || i >= len(w) || w[i].phase == phaseClosed {
		return nil, false
	}
	return &w[i], true
}

// close closes the open session with the given ID and trims the
// closed slots from the window's front. It moves no slot, so pointers
// to other sessions stay valid.
func (t *sessionTable) close(id int) {
	t.buf[t.head+id-t.first].phase = phaseClosed
	t.open--
	for t.head < len(t.buf) && t.buf[t.head].phase == phaseClosed {
		t.head++
		t.first++
	}
	if t.head == len(t.buf) {
		t.buf, t.head = t.buf[:0], 0
	}
}

// skipTo makes id the next ID issued, leaving the IDs skipped as
// closed slots; id must not be below next. Restores use it to rebuild
// the window from the open sessions a checkpoint lists.
func (t *sessionTable) skipTo(id int) {
	if t.open == 0 {
		t.buf, t.head, t.first = t.buf[:0], 0, id
		return
	}
	for t.next() < id {
		t.buf = append(t.buf, session{phase: phaseClosed})
	}
}
