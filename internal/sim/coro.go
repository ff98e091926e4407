//go:build go1.23

// The module declares go 1.22, but iter arrived in Go 1.23. This build
// constraint raises the language version of this file alone, so vet's
// stdversion check accepts the import without bumping go.mod (which would
// force the same bump on every module that requires this one). Toolchains
// older than go1.23 cannot build the package.

package sim

import "iter"

// start turns the process body into a coroutine. The dispatcher then runs
// it with p.next: the body runs on its own stack until it parks (p.yield
// switches straight back) or returns, and a panic in the body propagates
// out of p.next into the dispatcher. No goroutine scheduling or channel
// hand-off is involved in either direction.
func (p *Proc) start() {
	fn := p.fn
	p.fn = nil
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
}
