// Hook-object recycling for the replay workers: get/Reset run between
// batches on the compiled fast path.
//
//faultsim:hotpath

package fault

// freelist recycles hook objects of one concrete type across batches.
// get returns a zeroed object, reusing a previously handed-out one when
// available; reset makes every object reusable again without freeing
// it.  Pointers handed out before a reset must no longer be used.
type freelist[T any] struct {
	items []*T
	used  int
}

func (l *freelist[T]) get() *T {
	if l.used < len(l.items) {
		h := l.items[l.used]
		l.used++
		var zero T
		*h = zero
		return h
	}
	//faultsim:alloc-ok free-list growth: only the first batches allocate; steady state reuses
	h := new(T)
	l.items = append(l.items, h) //faultsim:alloc-ok free-list growth, amortized to zero per batch
	l.used++
	return h
}

func (l *freelist[T]) reset() { l.used = 0 }

// Pool recycles the hook objects installed by BatchInject so that
// steady-state replay batches allocate nothing: the first batches grow
// the per-type free lists, later batches reuse them.  A Pool belongs to
// one replay worker and is not safe for concurrent use.
type Pool struct {
	saf   freelist[safHook]
	tf    freelist[tfHook]
	sof   freelist[sofHook]
	sofg  freelist[sofGroup]
	drf   freelist[drfHook]
	af    freelist[afHook]
	cfin  freelist[cfinHook]
	cfid  freelist[cfidHook]
	cfst  freelist[cfstHook]
	bf    freelist[bfHook]
	snpsf freelist[snpsfHook]
	anpsf freelist[anpsfHook]
}

// Reset recycles every hook handed out since the previous Reset.  The
// caller must have dropped all references to them (the machine array's
// hook tables are cleared alongside).
func (p *Pool) Reset() {
	p.saf.reset()
	p.tf.reset()
	p.sof.reset()
	p.sofg.reset()
	p.drf.reset()
	p.af.reset()
	p.cfin.reset()
	p.cfid.reset()
	p.cfst.reset()
	p.bf.reset()
	p.snpsf.reset()
	p.anpsf.reset()
}

// sofGroup returns the stuck-open group hook of reg for the current
// batch, installing it as reg's every-read hook on first use.  A batch
// registers through at most a few lane groups, so a scan finds it.
func (p *Pool) sofGroup(reg HookRegistry) *sofGroup {
	for _, g := range p.sofg.items[:p.sofg.used] {
		if g.reg == reg {
			return g
		}
	}
	g := p.sofg.get()
	g.reg = reg
	reg.OnEveryRead(g)
	return g
}
