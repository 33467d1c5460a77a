package job

import (
	"context"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/storage"
)

// pendingChunk is a chunk committed to the shard writer whose checkpoint
// is not yet durable — on the filesystem one whose bytes no fsync has
// covered, on S3 one whose part is still uploading. It holds everything
// promotion needs to record the chunk once Sync catches up: about a
// hundred bytes, never the chunk's.
type pendingChunk struct {
	rec   ChunkRecord
	chunk uint64 // global chunk index
}

// peCheckpoint is one PE between its ordered stage, which writes and
// commits the shard, and the worker's checkpointer, which makes it
// durable and records it.
type peCheckpoint struct {
	prog       *PEProgress
	w          *shardWriter
	path       string // shard destination, used only by fault injection
	firstChunk uint64
	chunks     uint64
	span       obs.Span

	// Guarded by checkpointer.mu: the hand-off.
	handed    []pendingChunk // committed by the ordered stage, not yet taken by a round
	finishing bool           // the ordered stage committed the PE's last block

	// The checkpointer's own.
	headerPending int64 // committed header end not yet recorded (0 = recorded)
	tail          []pendingChunk
	done          bool // Done is published: the PE has left the checkpointer
}

// endSpan closes the PE's span at its current progress.
func (pc *peCheckpoint) endSpan() {
	pc.span.End(obs.U64("pe", pc.prog.PE), obs.U64("chunks_done", pc.prog.ChunksDone), obs.U64("edges", pc.prog.Edges))
}

// promoted is one chunk a round recorded, kept until its hooks have run.
type promoted struct {
	pc          *peCheckpoint
	start, end  int64 // shard byte range
	done, edges uint64
}

// checkpointer makes one worker's committed chunks durable and records
// them. It is the only code that mutates PEProgress, publishes the
// manifest, fires the checkpoint hooks and evaluates the checkpoint
// failpoints of a running worker; the ordered stages only write, commit
// and hand over.
//
// It works in rounds: Sync every open shard, promote every pending chunk
// (and a pending header) the sync covered, publish the manifest once,
// then run the hooks of each promoted chunk. Chunks committed while a
// round is in flight are covered by the next one, so the number of
// chunks per round follows the store's latency and the generators' rate
// by itself — a fast disk or a slow generator checkpoints every chunk, a
// slow disk batches — and what waits un-promoted is never more than the
// chunks delivered during one round.
//
// Ordering, per shard: Sync returns ⟶ manifest publish ⟶ hooks. The
// manifest therefore never records an offset past the last completed
// Sync, and every manifest that reaches the store is a chunk-prefix
// state the one-PE-at-a-time runner could have written: while a PE is
// finishing, its chunks get a round to themselves first, and the round
// after — Sync, promote, Finalize, Merkle root, Done, one publish — is the
// first that may also record the next PE, which generates meanwhile. So
// no PE's progress is published before its predecessor is done, and on a
// store that records chunks as they are committed Done is not published
// before the hooks of the PE's last chunk ran. finish admits one
// finishing PE at a time, so a worker has at most two shards open.
type checkpointer struct {
	store    storage.Backend
	manifest *Manifest
	mpath    string
	opts     *RunOptions
	log      *slog.Logger

	// failed mirrors err != nil: the ordered stage polls it once per
	// block, so a dead checkpointer stops generation at block granularity.
	failed atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond      // work arrived, a round ended, or close was called
	active  []*peCheckpoint // open PEs, oldest first: at most one finishing, then one generating
	work    bool            // something was handed over since the last round began
	closing bool
	err     error
	exited  chan struct{}

	batch []promoted // the current round's, reused
	out   manifestWriter
}

// startCheckpointer starts the worker's checkpointer. close stops it.
func startCheckpointer(store storage.Backend, manifest *Manifest, mpath string, opts *RunOptions, log *slog.Logger) *checkpointer {
	c := &checkpointer{
		store: store, manifest: manifest, mpath: mpath,
		opts: opts, log: log, exited: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// open registers a PE whose shard writer is ready. It starts no round:
// the committed header of a fresh shard waits for the PE's first chunk.
func (c *checkpointer) open(pc *peCheckpoint) {
	c.mu.Lock()
	c.active = append(c.active, pc)
	c.mu.Unlock()
}

// add hands a committed chunk of an open PE over. It never blocks on a
// round.
func (c *checkpointer) add(pc *peCheckpoint, ch pendingChunk) {
	c.mu.Lock()
	pc.handed = append(pc.handed, ch)
	c.work = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// finish hands a PE whose last block is committed over for finalizing and
// returns without waiting for it — except for an earlier PE that is still
// finishing, which bounds the open shards at two.
func (c *checkpointer) finish(pc *peCheckpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.active[0] != pc {
		c.cond.Wait()
	}
	if c.err != nil {
		return c.err
	}
	pc.finishing = true
	c.work = true
	c.cond.Broadcast()
	return nil
}

// idle waits until every PE handed over so far is finished: the caller
// may then touch progress records and the manifest itself (the audit and
// reset of a resumed PE do).
func (c *checkpointer) idle() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && len(c.active) > 0 {
		c.cond.Wait()
	}
	return c.err
}

// failure returns the error that stopped the checkpointer.
func (c *checkpointer) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// close runs a last round over everything handed over — finishing PEs
// finish, a PE whose generation failed keeps the chunks it committed —
// releases what is still open, and returns the checkpointer's first
// error. The ordered stages must have returned.
func (c *checkpointer) close() error {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	c.cond.Broadcast()
	<-c.exited
	return c.err
}

func (c *checkpointer) run() {
	defer close(c.exited)
	var round []*peCheckpoint
	c.mu.Lock()
	for c.err == nil {
		for !c.work && !c.closing {
			c.cond.Wait()
		}
		last := c.closing
		c.work = false
		round = append(round[:0], c.active...)
		for _, pc := range round {
			pc.tail = append(pc.tail, pc.handed...)
			pc.handed = pc.handed[:0]
		}
		finishing := len(round) > 0 && round[0].finishing
		c.mu.Unlock()
		var err error
		if finishing {
			if err = c.round(round[:1], false); err == nil {
				err = c.round(round, true)
			}
		} else {
			err = c.round(round, false)
		}
		c.mu.Lock()
		for len(c.active) > 0 && c.active[0].done {
			c.active = c.active[1:]
		}
		if err != nil {
			c.err = err
			c.failed.Store(true)
		}
		c.cond.Broadcast()
		if last {
			break
		}
	}
	// A failed checkpointer keeps its shards open until the ordered stage,
	// which may be mid-write, has returned.
	for !c.closing {
		c.cond.Wait()
	}
	open := c.active
	c.active = nil
	c.mu.Unlock()
	for _, pc := range open {
		pc.w.Close() // keep the partial state: durable bytes survive for resume
		c.endPE(pc)
	}
}

// round is one group checkpoint over the given PEs; finalize makes it the
// round that finishes the first of them.
func (c *checkpointer) round(pes []*peCheckpoint, finalize bool) error {
	if len(pes) == 0 {
		return nil
	}
	// The round is accounted to the oldest of its PEs.
	lead := pes[0]
	sp := c.opts.Trace.Start("job", "checkpoint", obs.LaneCheckpoint, lead.span)
	var t0 time.Time
	if c.opts.OnCommitLatency != nil {
		t0 = time.Now()
	}
	c.batch = c.batch[:0]
	changed := false
	for i, pc := range pes {
		ch, err := c.advance(pc, finalize && i == 0)
		if err != nil {
			return fmt.Errorf("PE %d: %w", pc.prog.PE, err)
		}
		changed = changed || ch
	}
	if !changed {
		return nil
	}
	if failpoint.Armed() && failpoint.Eval("job/crash-after-sync") {
		return failpoint.Crash("job/crash-after-sync")
	}
	if err := c.out.write(c.store, c.mpath, c.manifest); err != nil {
		return err
	}
	for _, pc := range pes {
		if pc.prog.Done {
			pc.done = true
			c.endPE(pc)
		}
	}
	if c.opts.OnCommitLatency != nil {
		c.opts.OnCommitLatency(lead.prog.PE, time.Since(t0).Seconds())
	}
	if c.opts.Trace != nil {
		var bytes int64
		for _, p := range c.batch {
			bytes += p.end - p.start
		}
		sp.End(obs.U64("pe", lead.prog.PE), obs.U64("chunks", uint64(len(c.batch))), obs.U64("bytes", uint64(bytes)))
	}
	if failpoint.Armed() && failpoint.Eval("job/crash-after-publish") {
		return failpoint.Crash("job/crash-after-publish")
	}
	debug := c.log.Enabled(context.Background(), slog.LevelDebug)
	for _, p := range c.batch {
		if debug {
			// Guarded: per-chunk logging must cost one level check when the
			// level is above debug, not an argument build.
			c.log.Debug("checkpoint", "pe", p.pc.prog.PE,
				"chunks_done", p.done, "edges", p.edges, "offset", p.end)
		}
		if c.opts.OnCheckpoint != nil {
			if err := c.opts.OnCheckpoint(p.pc.prog.PE, p.done, p.edges); err != nil {
				return err
			}
		}
		if failpoint.Armed() {
			if err := c.inject(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance syncs one PE's shard and promotes what the sync covered;
// finalize then publishes the shard and marks the PE done. It reports
// whether the manifest changed.
func (c *checkpointer) advance(pc *peCheckpoint, finalize bool) (changed bool, err error) {
	dur, err := pc.w.Sync()
	if err != nil {
		return false, err
	}
	changed = c.promote(pc, dur)
	if !finalize {
		return changed, nil
	}
	if failpoint.Armed() && failpoint.Eval("job/crash-before-finalize") {
		return false, failpoint.Crash("job/crash-before-finalize")
	}
	// Publish the shard, then promote whatever was still waiting on
	// uploads — after Finalize the whole shard is durable by definition.
	if err := pc.w.Finalize(); err != nil {
		return false, err
	}
	c.promote(pc, math.MaxInt64)
	if failpoint.Armed() && failpoint.Eval("job/crash-after-finalize") {
		return false, failpoint.Crash("job/crash-after-finalize")
	}
	leaves, err := pc.prog.leafDigests()
	if err != nil {
		return false, err
	}
	root := merkle.Root(leaves)
	pc.prog.Root = hex.EncodeToString(root[:])
	pc.prog.Done = true
	return true, nil
}

// promote records every pending chunk whose committed bytes the backend
// durably holds (End <= dur) into the PE's progress, the header first.
func (c *checkpointer) promote(pc *peCheckpoint, dur int64) (changed bool) {
	prog := pc.prog
	if pc.headerPending > 0 && pc.headerPending <= dur {
		prog.Offset, prog.HeaderEnd = pc.headerPending, pc.headerPending
		pc.headerPending = 0
		changed = true
	}
	if pc.headerPending > 0 {
		return false
	}
	n := 0
	for n < len(pc.tail) && pc.tail[n].rec.End <= dur {
		p := pc.tail[n]
		n++
		start := prog.Offset
		prog.ChunksDone = p.chunk - pc.firstChunk + 1
		prog.Offset = p.rec.End
		prog.Edges += p.rec.Edges
		prog.Chunks = append(prog.Chunks, p.rec)
		c.batch = append(c.batch, promoted{pc, start, p.rec.End, prog.ChunksDone, prog.Edges})
	}
	pc.tail = pc.tail[:copy(pc.tail, pc.tail[n:])]
	return changed || n > 0
}

// endPE closes a PE's span and logs its end: finished once Done is
// published, abandoned otherwise.
func (c *checkpointer) endPE(pc *peCheckpoint) {
	pc.endSpan()
	if pc.done {
		c.log.Info("pe finished", "pe", pc.prog.PE, "chunks", pc.chunks, "edges", pc.prog.Edges)
	}
}

// inject evaluates the post-checkpoint fault-injection sites against one
// promoted chunk, after its hook. The byte-level injectors reach into the
// shard with os-level tooling, so they exist on local backends only;
// sites that need chunk bytes to corrupt only count non-empty chunks, so
// arming "fire on the 2nd evaluation" always hits a real chunk.
func (c *checkpointer) inject(p promoted) error {
	if !c.store.Local() {
		if failpoint.Eval("job/crash") {
			return failpoint.Crash("job/crash")
		}
		return nil
	}
	path := localPath(p.pc.path)
	if p.end > p.start {
		if failpoint.Eval("job/chunk-bitflip") {
			// Flip one bit in the middle of the committed chunk — the rot a
			// verify pass must detect. The run continues: the corruption is
			// already durable and the manifest already vouches for the
			// original bytes.
			if err := flipByteAt(path, p.start+(p.end-p.start)/2); err != nil {
				return err
			}
		}
		if failpoint.Eval("job/shard-truncate") {
			// Cut the committed chunk in half and crash: the manifest now
			// leads the shard, which resume must refuse to paper over.
			if err := os.Truncate(path, p.start+(p.end-p.start)/2); err != nil {
				return err
			}
			return failpoint.Crash("job/shard-truncate")
		}
	}
	if failpoint.Eval("job/torn-tail") {
		// Append garbage to the shard and crash — the torn tail a real
		// crash mid-batch leaves, which resume truncates away.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		_, werr := f.Write([]byte("\x00torn tail garbage\xff"))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		return failpoint.Crash("job/torn-tail")
	}
	if failpoint.Eval("job/crash") {
		// Clean crash between checkpoints: disk state is exactly a
		// committed snapshot plus whatever the generators wrote since.
		return failpoint.Crash("job/crash")
	}
	return nil
}

// flipByteAt XORs one bit of a file in place and syncs it.
func flipByteAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		return err
	}
	return f.Sync()
}
