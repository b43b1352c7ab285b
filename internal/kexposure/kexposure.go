// Package kexposure implements the Kineograph comparison workload of
// §6.3: ingesting a tweet stream and maintaining, per hashtag, the number
// of distinct users exposed to it, reporting topics whose exposure crosses
// a threshold k ("controversial topics"). The dataflow is the paper's 26-
// line pipeline of SelectMany, Distinct, and a cumulative Count, and it
// runs under three fault-tolerance modes: none, periodic checkpoints, and
// continual logging.
package kexposure

import (
	"fmt"
	"os"
	"time"

	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
	"naiad/internal/workload"
)

// FTMode selects the fault-tolerance configuration of Figure 7c.
type FTMode uint8

const (
	// FTNone runs without fault tolerance.
	FTNone FTMode = iota
	// FTCheckpoint snapshots all stateful vertices periodically.
	FTCheckpoint
	// FTLogging logs every delivered batch at the counting stage.
	FTLogging
)

// String names the mode as the figure labels it.
func (m FTMode) String() string {
	switch m {
	case FTNone:
		return "None"
	case FTCheckpoint:
		return "Checkpoint"
	case FTLogging:
		return "Logging"
	}
	return fmt.Sprintf("ft(%d)", uint8(m))
}

// tagUser is a (hashtag, user) exposure event.
type tagUser struct {
	Tag  string
	User int64
}

func tagUserCodec() codec.Codec {
	return codec.New(
		func(e *codec.Encoder, v tagUser) { e.PutString(v.Tag); e.PutInt64(v.User) },
		func(d *codec.Decoder) tagUser { return tagUser{Tag: d.String(), User: d.Int64()} },
	)
}

// exposureCounter counts distinct users per hashtag cumulatively and emits
// (tag, count) when a tag's exposure crosses k. It checkpoints its counts.
type exposureCounter struct {
	ctx    *runtime.Context
	k      int64
	counts map[string]int64
}

func (v *exposureCounter) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	tu := msg.(tagUser)
	v.counts[tu.Tag]++
	if v.counts[tu.Tag] == v.k {
		v.ctx.SendBy(0, lib.Pair[string, int64]{Key: tu.Tag, Val: v.counts[tu.Tag]}, t)
	}
}

func (v *exposureCounter) OnNotify(ts.Timestamp) {}

// Checkpoint serializes the per-tag counts (§3.4).
func (v *exposureCounter) Checkpoint(enc *codec.Encoder) {
	enc.PutUint32(uint32(len(v.counts)))
	for tag, n := range v.counts {
		enc.PutString(tag)
		enc.PutInt64(n)
	}
}

// Restore rebuilds the counts from a checkpoint.
func (v *exposureCounter) Restore(dec *codec.Decoder) {
	v.counts = make(map[string]int64)
	for n := int(dec.Uint32()); n > 0; n-- {
		tag := dec.String()
		v.counts[tag] = dec.Int64()
	}
}

// Build wires the k-exposure dataflow over a tweet stream, returning the
// stream of topics that crossed the exposure threshold. logged controls
// Figure 7c's continual-logging mode.
func Build(s *lib.Scope, tweets *lib.Stream[workload.Tweet], k int64, logged bool) *lib.Stream[lib.Pair[string, int64]] {
	pairs := lib.SelectMany(tweets, func(tw workload.Tweet) []tagUser {
		out := make([]tagUser, 0, len(tw.Hashtags)*(1+len(tw.Mentions)))
		for _, tag := range tw.Hashtags {
			// The author and every mentioned user are exposed to the tag.
			out = append(out, tagUser{Tag: tag, User: tw.User})
			for _, m := range tw.Mentions {
				out = append(out, tagUser{Tag: tag, User: m})
			}
		}
		return out
	}, tagUserCodec())
	// First exposure of each (tag, user), as soon as it is seen.
	first := lib.DistinctCumulative(pairs)

	var opts []runtime.StageOption
	if logged {
		opts = append(opts, runtime.Logged())
	}
	c := s.C
	st := c.AddStage("exposure", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
		return &exposureCounter{ctx: ctx, k: k, counts: make(map[string]int64)}
	}, opts...)
	c.Connect(first.Stage(), 0, st, func(m runtime.Message) uint64 {
		return lib.Hash(m.(tagUser).Tag)
	}, tagUserCodec())
	return lib.StreamOf[lib.Pair[string, int64]](s, st, 0, nil, 0)
}

// Result reports one run of the k-exposure workload.
type Result struct {
	Mode            FTMode
	Tweets          int64
	Elapsed         time.Duration
	TweetsPerSecond float64
	// EpochLatencies[i] is the time from completing epoch i's input to the
	// epoch's results being fully reflected in the output.
	EpochLatencies []time.Duration
	// Controversial counts topics that crossed the threshold.
	Controversial int
	LoggedBatches int64
}

// fileSink appends logged batches to a real file — the append-only log
// device continual logging pays for (§3.4).
type fileSink struct {
	f     *os.File
	bytes int64
}

func newFileSink() (*fileSink, error) {
	f, err := os.CreateTemp("", "naiad-kexposure-log-*")
	if err != nil {
		return nil, err
	}
	os.Remove(f.Name()) // anonymous; space reclaimed on close
	return &fileSink{f: f}, nil
}

func (fs *fileSink) LogBatch(_ runtime.StageID, payload []byte) error {
	var hdr [4]byte
	hdr[0] = byte(len(payload))
	hdr[1] = byte(len(payload) >> 8)
	hdr[2] = byte(len(payload) >> 16)
	hdr[3] = byte(len(payload) >> 24)
	if _, err := fs.f.Write(hdr[:]); err != nil {
		return err
	}
	n, err := fs.f.Write(payload)
	fs.bytes += int64(n)
	return err
}

func (fs *fileSink) Close() { fs.f.Close() }

// Run executes the k-exposure workload: epochs of synthetic tweets pushed
// through the pipeline under the given fault-tolerance mode, measuring
// per-epoch response latency and overall throughput.
func Run(cfg runtime.Config, epochs, tweetsPerEpoch int, k int64, mode FTMode, checkpointEvery int) (*Result, error) {
	s, err := lib.NewScope(cfg)
	if err != nil {
		return nil, err
	}
	var sink *fileSink
	if mode == FTLogging {
		sink, err = newFileSink()
		if err != nil {
			return nil, err
		}
		defer sink.Close()
		s.C.SetLogSink(sink)
	}
	var snapFile *os.File
	if mode == FTCheckpoint {
		snapFile, err = os.CreateTemp("", "naiad-kexposure-snap-*")
		if err != nil {
			return nil, err
		}
		os.Remove(snapFile.Name())
		defer snapFile.Close()
	}
	in, tweets := lib.NewInput[workload.Tweet](s, "tweets", nil)
	topics := Build(s, tweets, k, mode == FTLogging)
	col := lib.Collect(topics)
	if err := s.C.Start(); err != nil {
		return nil, err
	}

	gen := workload.NewTweetGen(1, 100_000, 20_000)
	res := &Result{Mode: mode}
	start := time.Now()
	for e := 0; e < epochs; e++ {
		batch := gen.Batch(tweetsPerEpoch)
		per := make([][]workload.Tweet, cfg.Workers())
		for i, tw := range batch {
			w := i % cfg.Workers()
			per[w] = append(per[w], tw)
		}
		for w, b := range per {
			in.SendToWorker(w, b)
		}
		epochStart := time.Now()
		in.Advance()
		col.WaitFor(int64(e))
		res.EpochLatencies = append(res.EpochLatencies, time.Since(epochStart))
		res.Tweets += int64(tweetsPerEpoch)
		if mode == FTCheckpoint && checkpointEvery > 0 && (e+1)%checkpointEvery == 0 {
			snap, err := s.C.Checkpoint()
			if err != nil {
				return nil, err
			}
			// Durability: the checkpoint is complete once it is written
			// out (§3.4).
			if _, err := snapFile.WriteAt(runtime.EncodeCut(snap), 0); err != nil {
				return nil, err
			}
		}
	}
	in.Close()
	if err := s.C.Join(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.TweetsPerSecond = float64(res.Tweets) / res.Elapsed.Seconds()
	res.Controversial = len(col.All())
	res.LoggedBatches = s.C.LoggedBatches()
	return res, nil
}
