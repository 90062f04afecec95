package gcx

// Registry is the multi-query API: a set of query texts evaluated over ONE
// pass of each document — tokenized, projected and buffered once — while
// every subscription receives exactly the output (and output order) of
// its text's solo run. Clients Subscribe and Unsubscribe texts
// incrementally; Run and Bulk evaluate every active subscription.
//
// Three properties make this the 10k-subscription regime (see DESIGN.md,
// "Subscription registry"):
//
//   - Dedup: subscriptions are grouped by query text. Each DISTINCT text
//     is compiled once and evaluated once per document, no matter how many
//     subscribers share it; results fan out to every subscriber's writer.
//
//   - Shared automaton: the distinct texts' projection trees merge with
//     node sharing (static.MergeTrees), so per-token matching cost scales
//     with the number of distinct path STRUCTURES, not the query count.
//
//   - Incremental compilation: Subscribe compiles only its own query,
//     through the registry's CompileCache (a text the cache holds costs a
//     lookup); the merged snapshot is rebuilt lazily on the next Run,
//     reusing every surviving member's compiled artifact.
//
// The per-text projection trees are merged into one projection tree with
// per-text role spaces, so the shared buffer keeps the union of what the
// texts need, and — under the GCX strategy — a node is reclaimed the
// moment the LAST interested text signs it off.
//
// A Registry is a mutable directory whose snapshot holds the shared pass
// (an engine.Pass over the distinct texts). It is safe for concurrent
// use: Subscribe/Unsubscribe may race active Runs. Each Run evaluates an
// immutable snapshot taken when it starts — every churn call (a Subscribe
// or Unsubscribe of a new OR an already-grouped text) takes effect on the
// next one.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"gcx/internal/engine"
	"gcx/internal/xmlstream"
)

// Sink supplies the output writer for each subscription of a Run. Writer
// is called once per active subscription at run start; returning nil
// discards that subscription's output for this run. Writers must be
// distinct per subscription (results stream progressively along the
// shared pass).
type Sink interface {
	Writer(s *Subscription) io.Writer
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(s *Subscription) io.Writer

// Writer implements Sink.
func (f SinkFunc) Writer(s *Subscription) io.Writer { return f(s) }

// DiscardSink drops all output — for runs measured only through stats.
var DiscardSink Sink = SinkFunc(func(*Subscription) io.Writer { return nil })

// Registry holds the active subscriptions and their compiled artifacts.
type Registry struct {
	cc   *CompileCache // compiles every text new to the registry
	opts []Option

	mu     sync.Mutex
	groups map[string]*subGroup     // by query text
	order  []*subGroup              // insertion order (stable role spaces)
	subs   map[string]*Subscription // by subscription id
	ids    []string                 // subscription insertion order

	// The run artifact, in two layers so churn invalidates only what it
	// changed: pass is the merged pass over the distinct texts (nil =
	// stale, the group set changed), snap adds the frozen fan-out lists
	// (nil = stale, set by EVERY churn call). Both are immutable once
	// built, so runs in flight keep using them.
	pass *engine.Pass
	snap *registrySnapshot
}

// subGroup is one distinct query text and its subscribers. The compiled
// member survives snapshot rebuilds and subscriber churn — it is dropped
// only when the last subscriber leaves.
type subGroup struct {
	text   string
	member *engine.Compiled
	subs   []*Subscription // subscribe order
}

// registrySnapshot is the immutable artifact one Run evaluates: the
// merged pass over the distinct texts plus the fanout lists frozen at
// snapshot time.
type registrySnapshot struct {
	pass   *engine.Pass
	groups [][]*Subscription     // per pass member, frozen subscriber list
	index  map[*Subscription]int // subscription → its pass member
	member []int                 // per subscription in IDs order, its pass member

	// scratch recycles the fan-out wiring of a run (*fanScratch). The
	// wiring has the snapshot's shape — one fanout per group, one target
	// per subscription — so it lives and dies with the snapshot, and the
	// first run builds it, not snapshot(): churn that no run follows pays
	// nothing.
	scratch sync.Pool
}

// fanScratch is what a run needs between the sink and the shared pass:
// the members' output writers (outs[i] is &fans[i]), and every fanout's
// targets carved in group order from one backing slice. Only the targets'
// writers and broken flags are per run.
type fanScratch struct {
	outs    []io.Writer
	fans    []fanout
	targets []fanTarget
}

func (snap *registrySnapshot) newScratch() *fanScratch {
	sc := &fanScratch{
		outs:    make([]io.Writer, len(snap.groups)),
		fans:    make([]fanout, len(snap.groups)),
		targets: make([]fanTarget, 0, len(snap.index)),
	}
	for i, subs := range snap.groups {
		start := len(sc.targets)
		for _, sub := range subs {
			sc.targets = append(sc.targets, fanTarget{sub: sub})
		}
		sc.fans[i].targets = sc.targets[start:len(sc.targets):len(sc.targets)]
		sc.outs[i] = &sc.fans[i]
	}
	return sc
}

// reset drops what the run put in: an idle scratch must not pin a
// subscriber's writer.
//
//gcxlint:keep outs the wiring (outs[i] is &fans[i]) is fixed for the snapshot
//gcxlint:keep fans each fanout's window into targets is fixed for the snapshot
func (sc *fanScratch) reset() {
	for i := range sc.targets {
		t := &sc.targets[i]
		t.w, t.broken = nil, false
	}
}

// NewRegistry creates an empty registry compiling through a cache of its
// own: NewCompileCache(0).NewRegistry(opts...).
func NewRegistry(opts ...Option) (*Registry, error) {
	return NewCompileCache(0).NewRegistry(opts...)
}

// NewRegistry creates an empty registry whose Subscribe compiles through
// cc: a text new to the registry is one cc.Engine lookup, so a text cc
// already holds costs no compile and concurrent Subscribes of one new
// text compile it once. All subscriptions share one configuration
// (strategy, optimizations, schema): the pass runs one projection tree.
func (cc *CompileCache) NewRegistry(opts ...Option) (*Registry, error) {
	if _, err := compileConfig(opts); err != nil {
		return nil, err
	}
	return &Registry{
		cc:     cc,
		opts:   append([]Option(nil), opts...),
		groups: map[string]*subGroup{},
		subs:   map[string]*Subscription{},
	}, nil
}

// MustNewRegistry is NewRegistry panicking on error.
func MustNewRegistry(opts ...Option) *Registry {
	r, err := NewRegistry(opts...)
	if err != nil {
		panic("gcx: MustNewRegistry: " + err.Error())
	}
	return r
}

// Subscription is one client's standing query. Its stats accumulate
// across runs; reads are safe while runs are active.
type Subscription struct {
	id    string
	query string

	runs    atomic.Int64
	bytes   atomic.Int64
	lastErr atomic.Pointer[error]
}

// ID returns the subscription id.
func (s *Subscription) ID() string { return s.id }

// Query returns the subscribed query text.
func (s *Subscription) Query() string { return s.query }

// SubscriptionStats is a snapshot of one subscription's accumulated
// serving counters.
type SubscriptionStats struct {
	// Runs counts the registry runs that evaluated this subscription.
	Runs int64 `json:"runs"`
	// OutputBytes counts result bytes delivered to this subscription's
	// writers across all runs.
	OutputBytes int64 `json:"output_bytes"`
	// LastErr is the most recent delivery or evaluation error (nil when
	// the last run was clean). A delivery error never interrupts the
	// shared pass: the failing subscriber stops receiving bytes for that
	// run, siblings are unaffected.
	LastErr error `json:"-"`
}

// Stats returns a snapshot of the subscription's counters.
func (s *Subscription) Stats() SubscriptionStats {
	st := SubscriptionStats{
		Runs:        s.runs.Load(),
		OutputBytes: s.bytes.Load(),
	}
	if p := s.lastErr.Load(); p != nil {
		st.LastErr = *p
	}
	return st
}

func (s *Subscription) recordErr(err error) {
	if err == nil {
		// Almost always nil over nil: a load per subscriber per clean pass,
		// not a store.
		if s.lastErr.Load() != nil {
			s.lastErr.Store(nil)
		}
		return
	}
	// The address of a copy: &err would move the parameter to the heap at
	// function entry, an allocation per subscription on every clean pass.
	e := err
	s.lastErr.Store(&e)
}

// Subscribe registers a standing query under the given id and compiles it
// through the registry's cache if its text is new to the registry
// (subscriptions sharing a text share one compiled artifact and one
// evaluation per document). The id must be non-empty and not currently
// subscribed. A compile failure is reported as a *QueryError carrying the
// id; the registry is unchanged.
func (r *Registry) Subscribe(id, query string) (*Subscription, error) {
	if id == "" {
		return nil, errors.New("gcx: Subscribe: empty subscription id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A text with a group joins it under the lock. A new text is looked up
	// outside it, so concurrent Subscribes of distinct texts do not
	// serialize on compilation; the cache's per-entry once compiles a text
	// once however many Subscribes race for it.
	var member *engine.Compiled
	if r.groups[query] == nil && r.subs[id] == nil {
		r.mu.Unlock()
		eng, err := r.cc.Engine(query, r.opts...)
		r.mu.Lock()
		if err != nil {
			return nil, requalify(err, id)
		}
		member = eng.c
	}
	if _, dup := r.subs[id]; dup {
		return nil, fmt.Errorf("gcx: Subscribe: id %q is already subscribed", id)
	}
	g := r.groups[query]
	if g == nil {
		g = &subGroup{text: query, member: member}
		r.groups[query] = g
		r.order = append(r.order, g)
		r.pass = nil
	}
	sub := &Subscription{id: id, query: query}
	g.subs = append(g.subs, sub)
	r.subs[id] = sub
	r.ids = append(r.ids, id)
	r.snap = nil
	return sub, nil
}

// MustSubscribe is Subscribe panicking on error, for tests and examples.
func (r *Registry) MustSubscribe(id, query string) *Subscription {
	s, err := r.Subscribe(id, query)
	if err != nil {
		panic("gcx: MustSubscribe: " + err.Error())
	}
	return s
}

// Unsubscribe removes the subscription with the given id, reporting
// whether it existed. When the last subscription of a query text leaves,
// the registry drops the text's compiled artifact (its cache keeps it
// while the LRU does) and the merged snapshot is rebuilt on the next Run. A run already in flight is unaffected (it
// evaluates the snapshot taken at its start).
func (r *Registry) Unsubscribe(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sub, ok := r.subs[id]
	if !ok {
		return false
	}
	delete(r.subs, id)
	r.ids = slices.DeleteFunc(r.ids, func(x string) bool { return x == id })
	g := r.groups[sub.query]
	g.subs = slices.DeleteFunc(g.subs, func(x *Subscription) bool { return x == sub })
	if len(g.subs) == 0 {
		delete(r.groups, sub.query)
		r.order = slices.DeleteFunc(r.order, func(x *subGroup) bool { return x == g })
		r.pass = nil
	}
	// Otherwise the group survives and only its fanout list changed: the
	// merged pass is kept, the frozen subscriber lists are not.
	r.snap = nil
	return true
}

// Len returns the number of active subscriptions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Groups returns the number of distinct query texts — the number of
// evaluations one Run performs per document.
func (r *Registry) Groups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// IDs returns the active subscription ids in subscribe order.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string{}, r.ids...)
}

// Subscription returns the active subscription with the given id.
func (r *Registry) Subscription(id string) (*Subscription, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	return s, ok
}

// snapshot returns the current immutable run artifact, rebuilding only
// the stale layers: the fanout lists after any churn, the merged pass
// only when the group set changed (compiled members are reused as-is —
// churn never recompiles surviving queries).
func (r *Registry) snapshot() (*registrySnapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return nil, errors.New("gcx: registry has no subscriptions")
	}
	if r.snap != nil {
		return r.snap, nil
	}
	if r.pass == nil {
		members := make([]*engine.Compiled, len(r.order))
		for i, g := range r.order {
			members[i] = g.member
		}
		p, err := engine.NewPass(members)
		if err != nil {
			return nil, err
		}
		r.pass = p
	}
	snap := &registrySnapshot{
		pass:   r.pass,
		groups: make([][]*Subscription, len(r.order)),
		index:  make(map[*Subscription]int, len(r.subs)),
		member: make([]int, len(r.ids)),
	}
	for i, g := range r.order {
		snap.groups[i] = append([]*Subscription(nil), g.subs...)
		for _, sub := range g.subs {
			snap.index[sub] = i
		}
	}
	for i, id := range r.ids {
		snap.member[i] = snap.index[r.subs[id]]
	}
	r.snap = snap
	return snap, nil
}

// QueryStats reports one query text's share of a registry run: its
// output bytes, executed signOffs, role assignments and removals (equal
// after a clean GCX run), the shared stream position at which its
// evaluation completed, its own time to first result and evaluation wall
// time, and its evaluation error, if any (also joined into the error
// returned by Run). It is the engine's own record — a run fills the slice
// the caller receives and nothing copies it — and marshals with stable
// snake_case field names.
type QueryStats = engine.QueryStats

// RegistryStats reports one registry run. Aggregate measures the single
// shared pass: TokensRead is what ONE solo run would read, not one read
// per text, and the peaks are the union buffer's. Queries has one entry
// per DISTINCT query text, in group order (Query finds a subscription's).
type RegistryStats struct {
	Aggregate Stats        `json:"aggregate"`
	Queries   []QueryStats `json:"queries"`
	// Groups is the number of distinct query texts evaluated;
	// Subscriptions is the number of fanout targets served.
	Groups        int `json:"groups"`
	Subscriptions int `json:"subscriptions"`

	index map[*Subscription]int // the run's snapshot: subscription → Queries entry
}

// Query returns this run's QueryStats for the text sub subscribes to —
// its evaluation error and time-to-first-result included — and false if
// the run did not serve sub (it subscribed after the run's snapshot).
// Subscribers of one text share one evaluation, hence one QueryStats.
func (s RegistryStats) Query(sub *Subscription) (QueryStats, bool) {
	i, ok := s.index[sub]
	if !ok {
		return QueryStats{}, false
	}
	return s.Queries[i], true
}

// Run evaluates every active subscription over the XML document read from
// in — one shared pass, one evaluation per distinct query text — fanning
// each text's result out to its subscribers' writers (obtained from
// sink). Per-subscriber delivery errors are isolated: they are recorded
// on the subscription (Stats().LastErr) and stop that subscriber's
// delivery for this run, without disturbing the shared pass. The returned
// error reports failures of the pass itself.
func (r *Registry) Run(in io.Reader, sink Sink) (RegistryStats, error) {
	return r.RunContext(context.Background(), in, sink)
}

// RunContext is Run bounded by a context; see Engine.RunContext.
func (r *Registry) RunContext(ctx context.Context, in io.Reader, sink Sink) (RegistryStats, error) {
	snap, err := r.snapshot()
	if err != nil {
		return RegistryStats{}, err
	}
	if sink == nil {
		sink = DiscardSink
	}
	// A warm run allocates nothing here: the wiring is the snapshot's, and
	// only the writers are the run's. (A run that panics — a subscriber's
	// writer, say — does not return its scratch, as it does not return its
	// run state.)
	sc, _ := snap.scratch.Get().(*fanScratch)
	if sc == nil {
		sc = snap.newScratch()
	}
	for i := range sc.targets {
		t := &sc.targets[i]
		t.w = sink.Writer(t.sub)
	}
	st, qs, runErr := snap.pass.RunInto(ctx, in, sc.outs, nil)
	for i := range sc.fans {
		qerr := qs[i].Err
		for j := range sc.fans[i].targets {
			t := &sc.fans[i].targets[j]
			t.sub.runs.Add(1)
			if qerr != nil {
				t.sub.recordErr(qerr)
			} else if !t.broken {
				t.sub.recordErr(nil)
			}
		}
	}
	sc.reset()
	snap.scratch.Put(sc)
	return RegistryStats{
		Aggregate:     convertStats(st),
		Queries:       qs,
		Groups:        len(snap.groups),
		Subscriptions: len(snap.index),
		index:         snap.index,
	}, runErr
}

// Explain returns the compilation diagnostics of every distinct query
// text, in group order, followed by the merged projection tree and the
// combined role table — "" for a registry with no subscriptions.
func (r *Registry) Explain() string {
	snap, err := r.snapshot()
	if err != nil {
		return ""
	}
	return snap.pass.Explain()
}

// fanout delivers one group's result stream to every subscriber of its
// query text. Delivery errors are isolated per target: a failing
// subscriber is dropped for the rest of the run and the error recorded on
// its subscription; Write always reports success upstream so the shared
// pass continues for the siblings.
type fanout struct {
	targets []fanTarget
}

type fanTarget struct {
	w      io.Writer // nil discards
	sub    *Subscription
	broken bool
}

func (f *fanout) Write(p []byte) (int, error) {
	for i := range f.targets {
		t := &f.targets[i]
		if t.w == nil || t.broken {
			continue
		}
		n, err := t.w.Write(p)
		if err == nil && n < len(p) {
			err = io.ErrShortWrite
		}
		t.sub.bytes.Add(int64(n))
		if err != nil {
			t.broken = true
			t.sub.recordErr(err)
		}
	}
	return len(p), nil
}

// FlushResult propagates the engine's first-result flush to every target
// that can use it (xmlstream.ResultFlusher), so earliest answering
// reaches each subscriber's transport.
func (f *fanout) FlushResult() {
	for i := range f.targets {
		t := &f.targets[i]
		if t.w == nil || t.broken {
			continue
		}
		if rf, ok := t.w.(xmlstream.ResultFlusher); ok {
			rf.FlushResult()
		}
	}
}
