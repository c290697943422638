package core

import (
	"runtime"

	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// Finding is one positive detection: the query procedure appears to be
// present in a target executable.
type Finding struct {
	// ProcIndex / ProcName identify the matched target procedure.
	ProcIndex int
	ProcName  string
	ProcAddr  uint32
	Score     int
	// Ratio is Score over the query's strand count — the containment
	// confidence the acceptance threshold is applied to.
	Ratio float64
	Steps int
}

// SearchOptions configure a search pass (PlayBatch) and the acceptance
// threshold MatchOne shares with it. The zero value (and a nil pointer)
// selects the floors every search and experiment runs with, 8 shared
// strands and 42% of the query's. The ratio floor plays the role of the
// paper's semi-manual confirmation step: genuinely shared procedures keep
// ~45%+ of the query's canonical strands even across divergent tool
// chains, while coincidental matches between unrelated string-processing
// procedures plateau near 40%.
type SearchOptions struct {
	Game Options
	// MinScore is the minimum absolute number of shared strands for a
	// match to count as a detection (default 8).
	MinScore int
	// MinRatio is the minimum Score/|Strands(q)| (default 0.42).
	MinRatio float64
	// MarkerMinOverlap is the confirmation threshold: the fraction of
	// the query procedure's constant markers that the matched procedure
	// must exhibit (the automated analog of the paper's semi-manual
	// confirmation through string constants and global-memory markers).
	// 0 selects the default 0.3; set negative to disable.
	MarkerMinOverlap float64
	// Workers bounds the parallel target workers (default GOMAXPROCS).
	Workers int
	// Span is the parent the search is timed and counted under: one
	// "core.search" / "core.search_batch" span carrying aggregate
	// attributes — targets, examined, findings, summed game steps, and the
	// planned games that yielded no finding by why (games_unplayed,
	// games_cut, games_lost, refused_score / _ratio / _marker) — and
	// the pass's game.*, search.* and batch.* metrics in its registry.
	// Purely observational: results are identical with and without it,
	// and the zero Span costs nothing.
	Span telemetry.Span
}

// Floors returns the acceptance floors in force, defaults applied: the
// minimum score and the minimum ratio.
func (o *SearchOptions) Floors() (minScore int, minRatio float64) {
	return o.minScore(), o.minRatio()
}

func (o *SearchOptions) minScore() int {
	if o == nil || o.MinScore <= 0 {
		return 8
	}
	return o.MinScore
}

func (o *SearchOptions) markerMinOverlap() float64 {
	if o == nil || o.MarkerMinOverlap == 0 {
		return 0.3
	}
	if o.MarkerMinOverlap < 0 {
		return 0
	}
	return o.MarkerMinOverlap
}

func (o *SearchOptions) minRatio() float64 {
	if o == nil || o.MinRatio <= 0 {
		return 0.42
	}
	return o.MinRatio
}

func (o *SearchOptions) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o *SearchOptions) game() *Options {
	if o == nil {
		return nil
	}
	return &o.Game
}

func (o *SearchOptions) span() telemetry.Span {
	if o == nil {
		return telemetry.Span{}
	}
	return o.Span
}

// MatchOne runs the game against a single target and applies the
// threshold, returning nil when the target does not contain the query.
func MatchOne(q *sim.Exe, qi int, t *sim.Exe, opt *SearchOptions) (*Finding, Result) {
	r := Match(q, qi, t, opt.game())
	return accept(q, qi, t, r, opt), r
}

// accept turns a game's outcome into a finding when the matched pair
// passes acceptable.
func accept(q *sim.Exe, qi int, t *sim.Exe, r Result, opt *SearchOptions) *Finding {
	if r.Target < 0 {
		return nil
	}
	ratio, ok := acceptable(q, qi, t, r.Target, r.Score, opt)
	if !ok {
		return nil
	}
	tp := t.Procs[r.Target]
	return &Finding{
		ProcIndex: r.Target,
		ProcName:  tp.Name,
		ProcAddr:  tp.Addr,
		Score:     r.Score,
		Ratio:     ratio,
		Steps:     r.Steps,
	}
}

// acceptable is the acceptance predicate: whether procedure ti of t,
// sharing score strands with query procedure qi, may be reported as an
// occurrence of it, and the ratio it is reported with (see Refusal).
func acceptable(q *sim.Exe, qi int, t *sim.Exe, ti, score int, opt *SearchOptions) (ratio float64, ok bool) {
	ratio, refused := Refusal(q, qi, t, ti, score, opt)
	return ratio, refused == ""
}

// Refusal names what refuses procedure ti of t, sharing score strands
// with query procedure qi, as an occurrence of it — "score", "ratio" or
// "marker" for the score floor, the ratio floor or the marker bar, ""
// when nothing does — and the ratio an accepted pair is reported with.
// It depends on the pair alone, never on the course of a game, which is
// what lets a search name the acceptable procedures of a target before
// playing.
func Refusal(q *sim.Exe, qi int, t *sim.Exe, ti, score int, opt *SearchOptions) (ratio float64, refused string) {
	qsize := q.Procs[qi].Set.Size()
	if qsize == 0 || score < opt.minScore() {
		return 0, "score"
	}
	ratio = float64(score) / float64(qsize)
	if ratio < opt.minRatio() {
		return 0, "ratio"
	}
	// Confirmation markers: a true occurrence of the query procedure
	// carries its distinctive constants; require a minimum fraction when
	// the query has enough markers to be meaningful.
	if bar := opt.markerMinOverlap(); bar > 0 {
		qm := q.Procs[qi].Markers
		if len(qm) >= 1 && strand.MarkerOverlap(qm, t.Procs[ti].Markers) < bar {
			return 0, "marker"
		}
	}
	return ratio, ""
}
