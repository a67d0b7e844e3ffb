package bist

import (
	"fmt"
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/interconnect"
)

// sessionConflict reports whether two modules cannot be tested in the
// same session under the chosen embeddings:
//
//   - a signature register (tail) can compact responses for only one
//     module at a time;
//   - a register acting as TPG for one module and SA for the other must
//     be a CBILBO to do both concurrently; a plain BILBO forces separate
//     sessions (sharing a TPG between modules is fine: both receive the
//     same pseudo-random stream).
func (p *Plan) sessionConflict(a, b string) bool {
	ea, eb := p.Embeddings[a], p.Embeddings[b]
	if ea.Tail == eb.Tail {
		return true
	}
	crossed := func(x, y Embedding) bool {
		for _, h := range []string{x.HeadL, x.HeadR} {
			if h == "" || interconnect.IsPad(h) {
				continue
			}
			// h would generate for x and compact for y concurrently;
			// only a CBILBO can do both at once.
			if h == y.Tail && p.Styles[h] != area.CBILBO {
				return true
			}
		}
		return false
	}
	return crossed(ea, eb) || crossed(eb, ea)
}

// ScheduleSessions greedily colors the module conflict relation into test
// sessions (first-fit over modules sorted by name), minimizing session
// count heuristically.
func ScheduleSessions(p *Plan) [][]string {
	var mods []string
	for m := range p.Embeddings {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	var sessions [][]string
	for _, m := range mods {
		placed := false
		for i, sess := range sessions {
			ok := true
			for _, other := range sess {
				if p.sessionConflict(m, other) {
					ok = false
					break
				}
			}
			if ok {
				sessions[i] = append(sessions[i], m)
				placed = true
				break
			}
		}
		if !placed {
			sessions = append(sessions, []string{m})
		}
	}
	return sessions
}

// schedule is ScheduleSessions over the interned search state, for the
// complete assignment asg (embedding index per module position) whose
// duties the arena's counters hold. Modules are placed first-fit in
// byName (module positions in name order, ScheduleSessions' order), and
// the conflict test is sessionConflict on embRefs: a shared tail, or a
// head that is the other module's tail while that register is no CBILBO
// (cb > 0 exactly when roles.style says CBILBO). The sessions therefore
// match ScheduleSessions member for member, as module positions. They
// live in the arena's reused buffers until the next call.
func (a *searchArena) schedule(refs [][]embRef, byName, asg []int32) [][]int32 {
	sess := a.sess[:0]
next:
	for _, p := range byName {
		x := refs[p][asg[p]]
		for i, members := range sess {
			ok := true
			for _, q := range members {
				y := refs[q][asg[q]]
				if x.t == y.t ||
					(x.l == y.t || x.r == y.t) && a.cb[y.t] == 0 ||
					(y.l == x.t || y.r == x.t) && a.cb[x.t] == 0 {
					ok = false
					break
				}
			}
			if ok {
				sess[i] = append(members, p)
				continue next
			}
		}
		if len(sess) < cap(sess) {
			sess = sess[:len(sess)+1]
			sess[len(sess)-1] = append(sess[len(sess)-1][:0], p)
		} else {
			sess = append(sess, []int32{p})
		}
	}
	a.sess = sess
	return sess
}

// checkSession verifies that a set of modules can run concurrently.
func (p *Plan) checkSession(sess []string) error {
	for i, a := range sess {
		for _, b := range sess[i+1:] {
			if p.sessionConflict(a, b) {
				return fmt.Errorf("bist: modules %s and %s conflict within one session", a, b)
			}
		}
	}
	return nil
}

// NumSessions returns the number of test sessions.
func (p *Plan) NumSessions() int { return len(p.Sessions) }
